//! CSS3 selector parsing and matching.
//!
//! Implements the selector subset the m.Site paper relies on for object
//! identification ("objects can be identified using new CSS 3 selector
//! support"): type/universal selectors, `#id`, `.class`, attribute
//! selectors with all CSS3 operators, the structural pseudo-classes
//! (`:first-child`, `:last-child`, `:only-child`, `:nth-child`, `:empty`,
//! `:root`), `:not(...)`, the jQuery `:contains("text")` extension, and
//! the four combinators (descendant, `>`, `+`, `~`). Matching runs
//! right-to-left like production engines.

use msite_html::{Document, NodeId};
use std::error::Error;
use std::fmt;

/// Error produced when a selector fails to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseSelectorError {
    message: String,
    position: usize,
}

impl ParseSelectorError {
    fn new(message: impl Into<String>, position: usize) -> Self {
        ParseSelectorError {
            message: message.into(),
            position,
        }
    }

    /// Byte offset in the selector source where parsing failed.
    pub fn position(&self) -> usize {
        self.position
    }
}

impl fmt::Display for ParseSelectorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid selector at byte {}: {}",
            self.position, self.message
        )
    }
}

impl Error for ParseSelectorError {}

/// Attribute matching operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttrOp {
    /// `[attr]`
    Exists,
    /// `[attr=v]`
    Equals,
    /// `[attr~=v]` — whitespace-separated word match.
    Includes,
    /// `[attr|=v]` — exact or `v-` prefix.
    DashMatch,
    /// `[attr^=v]`
    Prefix,
    /// `[attr$=v]`
    Suffix,
    /// `[attr*=v]`
    Substring,
}

/// One simple selector within a compound.
#[derive(Debug, Clone, PartialEq)]
pub enum SimpleSelector {
    /// `*`
    Universal,
    /// `div`
    Type(String),
    /// `#id`
    Id(String),
    /// `.class`
    Class(String),
    /// `[attr op value]`
    Attr {
        /// Lowercased attribute name.
        name: String,
        /// Operator; value ignored for [`AttrOp::Exists`].
        op: AttrOp,
        /// Comparison value.
        value: String,
    },
    /// `:first-child`
    FirstChild,
    /// `:last-child`
    LastChild,
    /// `:only-child`
    OnlyChild,
    /// `:root`
    Root,
    /// `:empty`
    Empty,
    /// `:nth-child(an+b)`
    NthChild(i32, i32),
    /// `:nth-of-type(an+b)`
    NthOfType(i32, i32),
    /// `:first-of-type`
    FirstOfType,
    /// `:last-of-type`
    LastOfType,
    /// `:not(compound)`
    Not(Box<Compound>),
    /// jQuery extension `:contains("text")`.
    Contains(String),
}

/// A compound selector: simple selectors with no combinator between them,
/// e.g. `td.alt1[width]`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Compound {
    /// The simple selectors, all of which must match.
    pub parts: Vec<SimpleSelector>,
}

/// Relationship between adjacent compounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Combinator {
    /// Whitespace.
    Descendant,
    /// `>`
    Child,
    /// `+`
    NextSibling,
    /// `~`
    SubsequentSibling,
}

/// A complex selector: the rightmost (key) compound plus the chain of
/// `(combinator, compound)` pairs leading left from it.
#[derive(Debug, Clone, PartialEq)]
pub struct ComplexSelector {
    /// Rightmost compound — matched against the candidate element itself.
    pub key: Compound,
    /// Leftward chain, nearest first.
    pub chain: Vec<(Combinator, Compound)>,
}

/// A comma-separated selector list.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectorList {
    /// The alternatives; an element matches when any alternative does.
    pub selectors: Vec<ComplexSelector>,
}

impl fmt::Display for SelectorList {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, sel) in self.selectors.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            let mut parts: Vec<String> = Vec::new();
            for (comb, compound) in sel.chain.iter().rev() {
                parts.push(format_compound(compound));
                parts.push(
                    match comb {
                        Combinator::Descendant => " ",
                        Combinator::Child => " > ",
                        Combinator::NextSibling => " + ",
                        Combinator::SubsequentSibling => " ~ ",
                    }
                    .to_string(),
                );
            }
            parts.push(format_compound(&sel.key));
            f.write_str(&parts.concat())?;
        }
        Ok(())
    }
}

fn format_compound(c: &Compound) -> String {
    let mut out = String::new();
    for p in &c.parts {
        match p {
            SimpleSelector::Universal => out.push('*'),
            SimpleSelector::Type(t) => out.push_str(t),
            SimpleSelector::Id(i) => {
                out.push('#');
                out.push_str(i);
            }
            SimpleSelector::Class(c) => {
                out.push('.');
                out.push_str(c);
            }
            SimpleSelector::Attr { name, op, value } => {
                out.push('[');
                out.push_str(name);
                let op_str = match op {
                    AttrOp::Exists => None,
                    AttrOp::Equals => Some("="),
                    AttrOp::Includes => Some("~="),
                    AttrOp::DashMatch => Some("|="),
                    AttrOp::Prefix => Some("^="),
                    AttrOp::Suffix => Some("$="),
                    AttrOp::Substring => Some("*="),
                };
                if let Some(op_str) = op_str {
                    out.push_str(op_str);
                    out.push('"');
                    out.push_str(value);
                    out.push('"');
                }
                out.push(']');
            }
            SimpleSelector::FirstChild => out.push_str(":first-child"),
            SimpleSelector::LastChild => out.push_str(":last-child"),
            SimpleSelector::OnlyChild => out.push_str(":only-child"),
            SimpleSelector::Root => out.push_str(":root"),
            SimpleSelector::Empty => out.push_str(":empty"),
            SimpleSelector::NthChild(a, b) => {
                out.push_str(&format!(":nth-child({a}n+{b})"));
            }
            SimpleSelector::NthOfType(a, b) => {
                out.push_str(&format!(":nth-of-type({a}n+{b})"));
            }
            SimpleSelector::FirstOfType => out.push_str(":first-of-type"),
            SimpleSelector::LastOfType => out.push_str(":last-of-type"),
            SimpleSelector::Not(inner) => {
                out.push_str(":not(");
                out.push_str(&format_compound(inner));
                out.push(')');
            }
            SimpleSelector::Contains(text) => {
                out.push_str(&format!(":contains(\"{text}\")"));
            }
        }
    }
    if out.is_empty() {
        out.push('*');
    }
    out
}

impl SelectorList {
    /// Parses a comma-separated selector list.
    ///
    /// # Errors
    ///
    /// Returns [`ParseSelectorError`] on malformed input (empty selector,
    /// bad attribute operator, unterminated bracket/paren, ...).
    ///
    /// # Examples
    ///
    /// ```
    /// use msite_selectors::css::SelectorList;
    /// let list = SelectorList::parse("table.forum > tr td:first-child, #login").unwrap();
    /// assert_eq!(list.selectors.len(), 2);
    /// ```
    pub fn parse(input: &str) -> Result<SelectorList, ParseSelectorError> {
        Parser::new(input).parse_list()
    }

    /// Highest specificity among the alternatives, as
    /// `(ids, classes/attrs/pseudo, types)`.
    pub fn specificity(&self) -> (u32, u32, u32) {
        self.selectors
            .iter()
            .map(complex_specificity)
            .max()
            .unwrap_or((0, 0, 0))
    }

    /// True when element `node` matches any alternative.
    pub fn matches(&self, doc: &Document, node: NodeId) -> bool {
        self.selectors.iter().any(|s| matches_complex(doc, node, s))
    }

    /// All elements under `scope` (excluding `scope` itself) matching this
    /// list, in document order.
    pub fn select(&self, doc: &Document, scope: NodeId) -> Vec<NodeId> {
        doc.descendants(scope)
            .filter(|&id| doc.data(id).as_element().is_some())
            .filter(|&id| self.matches(doc, id))
            .collect()
    }
}

fn complex_specificity(sel: &ComplexSelector) -> (u32, u32, u32) {
    let mut spec = compound_specificity(&sel.key);
    for (_, c) in &sel.chain {
        let s = compound_specificity(c);
        spec.0 += s.0;
        spec.1 += s.1;
        spec.2 += s.2;
    }
    spec
}

fn compound_specificity(c: &Compound) -> (u32, u32, u32) {
    let mut spec = (0, 0, 0);
    for p in &c.parts {
        match p {
            SimpleSelector::Id(_) => spec.0 += 1,
            SimpleSelector::Class(_)
            | SimpleSelector::Attr { .. }
            | SimpleSelector::FirstChild
            | SimpleSelector::LastChild
            | SimpleSelector::OnlyChild
            | SimpleSelector::Root
            | SimpleSelector::Empty
            | SimpleSelector::NthChild(..)
            | SimpleSelector::NthOfType(..)
            | SimpleSelector::FirstOfType
            | SimpleSelector::LastOfType
            | SimpleSelector::Contains(_) => spec.1 += 1,
            SimpleSelector::Type(_) => spec.2 += 1,
            SimpleSelector::Universal => {}
            SimpleSelector::Not(inner) => {
                let s = compound_specificity(inner);
                spec.0 += s.0;
                spec.1 += s.1;
                spec.2 += s.2;
            }
        }
    }
    spec
}

// ---------------------------------------------------------------------
// Matching
// ---------------------------------------------------------------------

fn matches_complex(doc: &Document, node: NodeId, sel: &ComplexSelector) -> bool {
    if !matches_compound(doc, node, &sel.key) {
        return false;
    }
    matches_chain(doc, node, &sel.chain)
}

fn matches_chain(doc: &Document, node: NodeId, chain: &[(Combinator, Compound)]) -> bool {
    let Some(((comb, compound), rest)) = chain.split_first() else {
        return true;
    };
    match comb {
        Combinator::Child => match element_parent(doc, node) {
            Some(p) => matches_compound(doc, p, compound) && matches_chain(doc, p, rest),
            None => false,
        },
        Combinator::Descendant => {
            let mut cur = element_parent(doc, node);
            while let Some(p) = cur {
                if matches_compound(doc, p, compound) && matches_chain(doc, p, rest) {
                    return true;
                }
                cur = element_parent(doc, p);
            }
            false
        }
        Combinator::NextSibling => match prev_element_sibling(doc, node) {
            Some(s) => matches_compound(doc, s, compound) && matches_chain(doc, s, rest),
            None => false,
        },
        Combinator::SubsequentSibling => {
            let mut cur = prev_element_sibling(doc, node);
            while let Some(s) = cur {
                if matches_compound(doc, s, compound) && matches_chain(doc, s, rest) {
                    return true;
                }
                cur = prev_element_sibling(doc, s);
            }
            false
        }
    }
}

fn element_parent(doc: &Document, node: NodeId) -> Option<NodeId> {
    let p = doc.node(node).parent()?;
    doc.data(p).as_element().map(|_| p)
}

fn prev_element_sibling(doc: &Document, node: NodeId) -> Option<NodeId> {
    let mut cur = doc.node(node).prev_sibling();
    while let Some(s) = cur {
        if doc.data(s).as_element().is_some() {
            return Some(s);
        }
        cur = doc.node(s).prev_sibling();
    }
    None
}

fn matches_compound(doc: &Document, node: NodeId, compound: &Compound) -> bool {
    let Some(element) = doc.data(node).as_element() else {
        return false;
    };
    compound.parts.iter().all(|part| match part {
        SimpleSelector::Universal => true,
        SimpleSelector::Type(t) => element.name() == t,
        SimpleSelector::Id(id) => element.attr("id") == Some(id.as_str()),
        SimpleSelector::Class(c) => element.has_class(c),
        SimpleSelector::Attr { name, op, value } => match element.attr(name) {
            None => false,
            Some(actual) => match op {
                AttrOp::Exists => true,
                AttrOp::Equals => actual == value,
                AttrOp::Includes => actual.split_ascii_whitespace().any(|w| w == value),
                AttrOp::DashMatch => {
                    actual == value
                        || actual
                            .strip_prefix(value.as_str())
                            .map(|r| r.starts_with('-'))
                            .unwrap_or(false)
                }
                AttrOp::Prefix => !value.is_empty() && actual.starts_with(value.as_str()),
                AttrOp::Suffix => !value.is_empty() && actual.ends_with(value.as_str()),
                AttrOp::Substring => !value.is_empty() && actual.contains(value.as_str()),
            },
        },
        SimpleSelector::FirstChild => doc.element_sibling_index(node) == Some(1),
        SimpleSelector::LastChild => is_last_element_child(doc, node),
        SimpleSelector::OnlyChild => {
            doc.element_sibling_index(node) == Some(1) && is_last_element_child(doc, node)
        }
        SimpleSelector::Root => element.name() == "html",
        SimpleSelector::Empty => doc.children(node).next().is_none(),
        SimpleSelector::NthChild(a, b) => match doc.element_sibling_index(node) {
            Some(index) => nth_matches(*a, *b, index as i32),
            None => false,
        },
        SimpleSelector::NthOfType(a, b) => match type_sibling_index(doc, node) {
            Some(index) => nth_matches(*a, *b, index as i32),
            None => false,
        },
        SimpleSelector::FirstOfType => type_sibling_index(doc, node) == Some(1),
        SimpleSelector::LastOfType => is_last_of_type(doc, node),
        SimpleSelector::Not(inner) => !matches_compound(doc, node, inner),
        SimpleSelector::Contains(text) => doc.text_content(node).contains(text.as_str()),
    })
}

/// 1-based position of `node` among siblings sharing its tag name.
fn type_sibling_index(doc: &Document, node: NodeId) -> Option<usize> {
    let name = doc.tag_name(node)?.to_string();
    let parent = doc.node(node).parent()?;
    let mut index = 0;
    for sibling in doc.children(parent) {
        if doc.tag_name(sibling) == Some(name.as_str()) {
            index += 1;
        }
        if sibling == node {
            return Some(index);
        }
    }
    None
}

fn is_last_of_type(doc: &Document, node: NodeId) -> bool {
    let Some(name) = doc.tag_name(node).map(str::to_string) else {
        return false;
    };
    if doc.node(node).parent().is_none() {
        return false;
    }
    let mut cur = doc.node(node).next_sibling();
    while let Some(s) = cur {
        if doc.tag_name(s) == Some(name.as_str()) {
            return false;
        }
        cur = doc.node(s).next_sibling();
    }
    true
}

fn is_last_element_child(doc: &Document, node: NodeId) -> bool {
    let mut cur = doc.node(node).next_sibling();
    while let Some(s) = cur {
        if doc.data(s).as_element().is_some() {
            return false;
        }
        cur = doc.node(s).next_sibling();
    }
    doc.node(node).parent().is_some()
}

/// True when `index` (1-based) is representable as `a*n + b` for some
/// integer `n >= 0`.
fn nth_matches(a: i32, b: i32, index: i32) -> bool {
    if a == 0 {
        return index == b;
    }
    let diff = index - b;
    diff % a == 0 && diff / a >= 0
}

// ---------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------

struct Parser<'a> {
    input: &'a str,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(input: &'a str) -> Self {
        Parser { input, pos: 0 }
    }

    fn err(&self, msg: impl Into<String>) -> ParseSelectorError {
        ParseSelectorError::new(msg, self.pos)
    }

    fn peek(&self) -> Option<char> {
        self.input[self.pos..].chars().next()
    }

    fn bump(&mut self) -> Option<char> {
        let ch = self.peek()?;
        self.pos += ch.len_utf8();
        Some(ch)
    }

    fn skip_ws(&mut self) -> bool {
        let start = self.pos;
        while matches!(self.peek(), Some(c) if c.is_whitespace()) {
            self.bump();
        }
        self.pos != start
    }

    fn parse_list(&mut self) -> Result<SelectorList, ParseSelectorError> {
        let mut selectors = Vec::new();
        loop {
            self.skip_ws();
            selectors.push(self.parse_complex()?);
            self.skip_ws();
            match self.peek() {
                Some(',') => {
                    self.bump();
                }
                None => break,
                Some(c) => return Err(self.err(format!("unexpected character `{c}`"))),
            }
        }
        Ok(SelectorList { selectors })
    }

    fn parse_complex(&mut self) -> Result<ComplexSelector, ParseSelectorError> {
        // Parse left-to-right, then reverse into key+chain form.
        let mut compounds = vec![self.parse_compound()?];
        let mut combinators: Vec<Combinator> = Vec::new();
        loop {
            let had_ws = self.skip_ws();
            let comb = match self.peek() {
                Some('>') => {
                    self.bump();
                    Combinator::Child
                }
                Some('+') => {
                    self.bump();
                    Combinator::NextSibling
                }
                Some('~') => {
                    self.bump();
                    Combinator::SubsequentSibling
                }
                Some(c) if had_ws && c != ',' => Combinator::Descendant,
                _ => break,
            };
            self.skip_ws();
            compounds.push(self.parse_compound()?);
            combinators.push(comb);
        }
        let key = compounds.pop().expect("at least one compound");
        let mut chain: Vec<(Combinator, Compound)> = Vec::new();
        while let Some(compound) = compounds.pop() {
            let comb = combinators.pop().expect("combinator per extra compound");
            chain.push((comb, compound));
        }
        Ok(ComplexSelector { key, chain })
    }

    fn parse_compound(&mut self) -> Result<Compound, ParseSelectorError> {
        let mut parts = Vec::new();
        loop {
            match self.peek() {
                Some('*') => {
                    self.bump();
                    parts.push(SimpleSelector::Universal);
                }
                Some('#') => {
                    self.bump();
                    let name = self.parse_identifier()?;
                    parts.push(SimpleSelector::Id(name));
                }
                Some('.') => {
                    self.bump();
                    let name = self.parse_identifier()?;
                    parts.push(SimpleSelector::Class(name));
                }
                Some('[') => {
                    self.bump();
                    parts.push(self.parse_attr()?);
                }
                Some(':') => {
                    self.bump();
                    parts.push(self.parse_pseudo()?);
                }
                Some(c) if is_ident_start(c) => {
                    let name = self.parse_identifier()?;
                    parts.push(SimpleSelector::Type(name.to_ascii_lowercase()));
                }
                _ => break,
            }
        }
        if parts.is_empty() {
            return Err(self.err("expected a selector"));
        }
        Ok(Compound { parts })
    }

    fn parse_identifier(&mut self) -> Result<String, ParseSelectorError> {
        let start = self.pos;
        while matches!(self.peek(), Some(c) if is_ident_char(c)) {
            self.bump();
        }
        if self.pos == start {
            return Err(self.err("expected identifier"));
        }
        Ok(self.input[start..self.pos].to_string())
    }

    fn parse_attr(&mut self) -> Result<SimpleSelector, ParseSelectorError> {
        self.skip_ws();
        let name = self.parse_identifier()?.to_ascii_lowercase();
        self.skip_ws();
        let op = match self.peek() {
            Some(']') => {
                self.bump();
                return Ok(SimpleSelector::Attr {
                    name,
                    op: AttrOp::Exists,
                    value: String::new(),
                });
            }
            Some('=') => {
                self.bump();
                AttrOp::Equals
            }
            Some(c @ ('~' | '|' | '^' | '$' | '*')) => {
                self.bump();
                if self.peek() != Some('=') {
                    return Err(self.err("expected `=` after attribute operator"));
                }
                self.bump();
                match c {
                    '~' => AttrOp::Includes,
                    '|' => AttrOp::DashMatch,
                    '^' => AttrOp::Prefix,
                    '$' => AttrOp::Suffix,
                    _ => AttrOp::Substring,
                }
            }
            _ => return Err(self.err("expected attribute operator or `]`")),
        };
        self.skip_ws();
        let value = self.parse_attr_value()?;
        self.skip_ws();
        if self.peek() != Some(']') {
            return Err(self.err("expected `]`"));
        }
        self.bump();
        Ok(SimpleSelector::Attr { name, op, value })
    }

    fn parse_attr_value(&mut self) -> Result<String, ParseSelectorError> {
        match self.peek() {
            Some(q @ ('"' | '\'')) => {
                self.bump();
                let start = self.pos;
                while let Some(c) = self.peek() {
                    if c == q {
                        let value = self.input[start..self.pos].to_string();
                        self.bump();
                        return Ok(value);
                    }
                    self.bump();
                }
                Err(self.err("unterminated string"))
            }
            _ => {
                let start = self.pos;
                while matches!(self.peek(), Some(c) if !c.is_whitespace() && c != ']') {
                    self.bump();
                }
                if self.pos == start {
                    return Err(self.err("expected attribute value"));
                }
                Ok(self.input[start..self.pos].to_string())
            }
        }
    }

    fn parse_pseudo(&mut self) -> Result<SimpleSelector, ParseSelectorError> {
        let name = self.parse_identifier()?.to_ascii_lowercase();
        match name.as_str() {
            "first-child" => Ok(SimpleSelector::FirstChild),
            "last-child" => Ok(SimpleSelector::LastChild),
            "only-child" => Ok(SimpleSelector::OnlyChild),
            "root" => Ok(SimpleSelector::Root),
            "empty" => Ok(SimpleSelector::Empty),
            "nth-child" => {
                self.expect('(')?;
                let arg = self.take_until(')')?;
                let (a, b) = parse_nth(arg.trim())
                    .ok_or_else(|| self.err(format!("bad nth-child argument `{arg}`")))?;
                Ok(SimpleSelector::NthChild(a, b))
            }
            "nth-of-type" => {
                self.expect('(')?;
                let arg = self.take_until(')')?;
                let (a, b) = parse_nth(arg.trim())
                    .ok_or_else(|| self.err(format!("bad nth-of-type argument `{arg}`")))?;
                Ok(SimpleSelector::NthOfType(a, b))
            }
            "first-of-type" => Ok(SimpleSelector::FirstOfType),
            "last-of-type" => Ok(SimpleSelector::LastOfType),
            "not" => {
                self.expect('(')?;
                let arg = self.take_until(')')?;
                let inner = Parser::new(&arg).parse_compound()?;
                Ok(SimpleSelector::Not(Box::new(inner)))
            }
            "contains" => {
                self.expect('(')?;
                let arg = self.take_until(')')?;
                let trimmed = arg.trim();
                let text = trimmed
                    .strip_prefix('"')
                    .and_then(|s| s.strip_suffix('"'))
                    .or_else(|| {
                        trimmed
                            .strip_prefix('\'')
                            .and_then(|s| s.strip_suffix('\''))
                    })
                    .unwrap_or(trimmed);
                Ok(SimpleSelector::Contains(text.to_string()))
            }
            other => Err(self.err(format!("unsupported pseudo-class `:{other}`"))),
        }
    }

    fn expect(&mut self, ch: char) -> Result<(), ParseSelectorError> {
        if self.peek() == Some(ch) {
            self.bump();
            Ok(())
        } else {
            Err(self.err(format!("expected `{ch}`")))
        }
    }

    fn take_until(&mut self, terminator: char) -> Result<String, ParseSelectorError> {
        let start = self.pos;
        while let Some(c) = self.peek() {
            if c == terminator {
                let content = self.input[start..self.pos].to_string();
                self.bump();
                return Ok(content);
            }
            self.bump();
        }
        Err(self.err(format!("expected `{terminator}`")))
    }
}

fn is_ident_start(c: char) -> bool {
    c.is_ascii_alphabetic() || c == '_' || c == '-'
}

fn is_ident_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_' || c == '-'
}

/// Parses an `an+b` expression: `odd`, `even`, `5`, `2n`, `2n+1`, `-n+3`.
fn parse_nth(s: &str) -> Option<(i32, i32)> {
    match s {
        "odd" => return Some((2, 1)),
        "even" => return Some((2, 0)),
        _ => {}
    }
    let compact: String = s.chars().filter(|c| !c.is_whitespace()).collect();
    if let Some(n_pos) = compact.find(['n', 'N']) {
        let a_part = &compact[..n_pos];
        let a = match a_part {
            "" | "+" => 1,
            "-" => -1,
            _ => a_part.parse().ok()?,
        };
        let b_part = &compact[n_pos + 1..];
        let b = if b_part.is_empty() {
            0
        } else {
            b_part.strip_prefix('+').unwrap_or(b_part).parse().ok()?
        };
        Some((a, b))
    } else {
        Some((0, compact.parse().ok()?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msite_html::parse_document;

    fn doc() -> Document {
        parse_document(
            r#"<html><body>
            <div id="main" class="wrap outer">
              <table class="forum" width="100%">
                <tr class="row odd"><td class="alt1">Forum A</td><td class="alt2"><a href="forumdisplay.php?f=1">go</a></td></tr>
                <tr class="row even"><td class="alt1">Forum B</td><td class="alt2"><a href="forumdisplay.php?f=2">go</a></td></tr>
                <tr class="row odd"><td class="alt1">Forum C</td><td class="alt2"><a href="https://other/x.png">img</a></td></tr>
              </table>
              <form id="login" action="login.php"><input type="text" name="user"><input type="password" name="pass"></form>
              <p></p>
            </div>
            </body></html>"#,
        )
    }

    fn select(d: &Document, sel: &str) -> Vec<NodeId> {
        SelectorList::parse(sel).unwrap().select(d, d.root())
    }

    #[test]
    fn type_and_universal() {
        let d = doc();
        assert_eq!(select(&d, "td").len(), 6);
        assert_eq!(select(&d, "TD").len(), 6);
        let all = select(&d, "*").len();
        assert!(all > 10);
    }

    #[test]
    fn id_selector() {
        let d = doc();
        assert_eq!(select(&d, "#login").len(), 1);
        assert_eq!(select(&d, "#missing").len(), 0);
        assert_eq!(select(&d, "form#login").len(), 1);
        assert_eq!(select(&d, "div#login").len(), 0);
    }

    #[test]
    fn class_selectors() {
        let d = doc();
        assert_eq!(select(&d, ".alt1").len(), 3);
        assert_eq!(select(&d, ".row.odd").len(), 2);
        assert_eq!(select(&d, "tr.even").len(), 1);
    }

    #[test]
    fn attribute_operators() {
        let d = doc();
        assert_eq!(select(&d, "[href]").len(), 3);
        assert_eq!(select(&d, "[width=100%]").len(), 1);
        assert_eq!(select(&d, "a[href^=forumdisplay]").len(), 2);
        assert_eq!(select(&d, "a[href$='.png']").len(), 1);
        assert_eq!(select(&d, "a[href*='f=2']").len(), 1);
        assert_eq!(select(&d, "[class~=odd]").len(), 2);
        assert_eq!(select(&d, "input[type=password]").len(), 1);
    }

    #[test]
    fn dash_match() {
        let d = parse_document(r#"<p lang="en">a</p><p lang="en-US">b</p><p lang="enx">c</p>"#);
        assert_eq!(select(&d, "[lang|=en]").len(), 2);
    }

    #[test]
    fn combinators() {
        let d = doc();
        assert_eq!(select(&d, "table td").len(), 6);
        assert_eq!(select(&d, "table > tr > td").len(), 6);
        assert_eq!(select(&d, "div > table").len(), 1);
        assert_eq!(select(&d, "body > table").len(), 0);
        assert_eq!(select(&d, "td.alt1 + td.alt2").len(), 3);
        assert_eq!(select(&d, "tr.odd ~ tr.even").len(), 1);
        assert_eq!(select(&d, "tr ~ tr").len(), 2);
    }

    #[test]
    fn structural_pseudo_classes() {
        let d = doc();
        assert_eq!(select(&d, "td:first-child").len(), 3);
        assert_eq!(select(&d, "td:last-child").len(), 3);
        assert_eq!(select(&d, "tr:nth-child(odd)").len(), 2);
        assert_eq!(select(&d, "tr:nth-child(2)").len(), 1);
        assert_eq!(select(&d, "tr:nth-child(2n)").len(), 1);
        assert_eq!(select(&d, "tr:nth-child(n+2)").len(), 2);
        assert_eq!(select(&d, "p:empty").len(), 1);
        assert_eq!(select(&d, "table:only-child").len(), 0);
    }

    #[test]
    fn of_type_pseudo_classes() {
        let d =
            parse_document("<div><h2>t</h2><p>a</p><p>b</p><p>c</p><span>x</span><p>d</p></div>");
        // p is never :first-child here (h2 is), but is :first-of-type.
        assert_eq!(select(&d, "p:first-child").len(), 0);
        assert_eq!(select(&d, "p:first-of-type").len(), 1);
        assert_eq!(d.text_content(select(&d, "p:first-of-type")[0]), "a");
        assert_eq!(d.text_content(select(&d, "p:last-of-type")[0]), "d");
        assert_eq!(select(&d, "span:last-of-type").len(), 1);
        // nth-of-type counts only same-tag siblings.
        assert_eq!(d.text_content(select(&d, "p:nth-of-type(2)")[0]), "b");
        assert_eq!(select(&d, "p:nth-of-type(odd)").len(), 2); // a, c
        assert_eq!(select(&d, "p:nth-of-type(9)").len(), 0);
    }

    #[test]
    fn negation_and_contains() {
        let d = doc();
        assert_eq!(select(&d, "td:not(.alt1)").len(), 3);
        assert_eq!(select(&d, "td:contains('Forum B')").len(), 1);
        assert_eq!(select(&d, "tr:contains(\"Forum\")").len(), 3);
        assert_eq!(select(&d, "input:not([type=password])").len(), 1);
    }

    #[test]
    fn selector_lists() {
        let d = doc();
        assert_eq!(select(&d, "form, table").len(), 2);
        assert_eq!(select(&d, ".alt1, .alt2, #login").len(), 7);
    }

    #[test]
    fn specificity_ordering() {
        let id = SelectorList::parse("#a").unwrap().specificity();
        let class = SelectorList::parse(".a.b").unwrap().specificity();
        let ty = SelectorList::parse("div span").unwrap().specificity();
        assert!(id > class && class > ty);
        assert_eq!(ty, (0, 0, 2));
        assert_eq!(
            SelectorList::parse("div#x .y[z]:first-child")
                .unwrap()
                .specificity(),
            (1, 3, 1)
        );
    }

    #[test]
    fn parse_errors() {
        for bad in [
            "",
            "  ",
            "..x",
            "[",
            "[a=",
            "[a^b]",
            ":bogus",
            "a >",
            "a,,b",
            ":nth-child(x)",
        ] {
            assert!(SelectorList::parse(bad).is_err(), "should fail: {bad}");
        }
    }

    #[test]
    fn nth_parse_forms() {
        assert_eq!(parse_nth("odd"), Some((2, 1)));
        assert_eq!(parse_nth("even"), Some((2, 0)));
        assert_eq!(parse_nth("3"), Some((0, 3)));
        assert_eq!(parse_nth("2n"), Some((2, 0)));
        assert_eq!(parse_nth("2n+1"), Some((2, 1)));
        assert_eq!(parse_nth("-n+3"), Some((-1, 3)));
        assert_eq!(parse_nth("+n"), Some((1, 0)));
        assert_eq!(parse_nth(" 2n + 1 "), Some((2, 1)));
        assert_eq!(parse_nth("garbage"), None);
    }

    #[test]
    fn nth_semantics() {
        // -n+3 matches the first three children.
        assert!(nth_matches(-1, 3, 1));
        assert!(nth_matches(-1, 3, 3));
        assert!(!nth_matches(-1, 3, 4));
        assert!(nth_matches(0, 2, 2));
        assert!(!nth_matches(0, 2, 4));
        assert!(!nth_matches(2, 1, 0));
    }

    #[test]
    fn display_round_trip() {
        for sel in [
            "div > p.note:first-child",
            "#a .b[c=\"d\"], span + i",
            "td:not(.alt1):contains(\"x\")",
            "tr:nth-child(2n+1)",
        ] {
            let parsed = SelectorList::parse(sel).unwrap();
            let printed = parsed.to_string();
            let reparsed = SelectorList::parse(&printed).unwrap();
            assert_eq!(parsed, reparsed, "{sel} -> {printed}");
        }
    }

    #[test]
    fn whitespace_variants_equivalent() {
        let d = doc();
        assert_eq!(select(&d, "div>table"), select(&d, "div > table"));
        assert_eq!(
            select(&d, "td.alt1+td.alt2"),
            select(&d, "td.alt1 + td.alt2")
        );
    }
}
