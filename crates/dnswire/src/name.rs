//! Domain names: label sequences with RFC 1035 length limits and
//! case-insensitive equality.

use std::fmt;
use std::str::FromStr;
use std::sync::Arc;

/// Maximum length of one label (RFC 1035 §2.3.4).
pub const MAX_LABEL_LEN: usize = 63;
/// Maximum total length of a name on the wire (RFC 1035 §2.3.4).
pub const MAX_NAME_LEN: usize = 255;

/// A fully-qualified domain name, stored as lowercase labels.
///
/// DNS names compare case-insensitively; we canonicalize to lowercase at
/// construction so `Eq`/`Hash`/`Ord` behave correctly everywhere (zone maps,
/// query logs, dedup sets).
///
/// Labels live behind an `Arc`: names are built once (parse, decode) and
/// then copied into queries, cache keys, zone lookups, and log entries —
/// a `clone` is a refcount bump, not a per-label string copy. All derived
/// comparisons delegate to the label slice, so ordering and hashing are
/// identical to the owned representation.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DnsName {
    labels: Arc<[String]>,
}

/// Errors constructing a [`DnsName`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NameError {
    /// A label was empty (consecutive dots or leading dot).
    EmptyLabel,
    /// A label exceeded 63 octets.
    LabelTooLong(String),
    /// The whole name exceeded 255 octets on the wire.
    NameTooLong,
    /// A label contained a byte outside the hostname-safe set.
    BadCharacter(char),
}

impl fmt::Display for NameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NameError::EmptyLabel => write!(f, "empty label"),
            NameError::LabelTooLong(l) => write!(f, "label too long: {l:?}"),
            NameError::NameTooLong => write!(f, "name exceeds 255 octets"),
            NameError::BadCharacter(c) => write!(f, "bad character in name: {c:?}"),
        }
    }
}

impl std::error::Error for NameError {}

impl DnsName {
    /// The root name (zero labels).
    pub fn root() -> Self {
        DnsName {
            labels: Arc::from([]),
        }
    }

    /// Parse from dotted notation ("www.example.com", trailing dot allowed).
    pub fn parse(s: &str) -> Result<Self, NameError> {
        let s = s.strip_suffix('.').unwrap_or(s);
        if s.is_empty() {
            return Ok(DnsName::root());
        }
        let labels = s
            .split('.')
            .map(canonical_label)
            .collect::<Result<Vec<_>, _>>()?;
        DnsName::checked(labels)
    }

    /// A name from canonical labels, rejecting it if it is too long.
    fn checked(labels: Vec<String>) -> Result<Self, NameError> {
        let name = DnsName {
            labels: labels.into(),
        };
        if name.wire_len() > MAX_NAME_LEN {
            return Err(NameError::NameTooLong);
        }
        Ok(name)
    }

    /// Construct from labels (already validated elsewhere, e.g. the wire
    /// decoder, which enforces limits itself).
    pub(crate) fn from_labels(labels: Vec<String>) -> Self {
        DnsName {
            labels: labels.into(),
        }
    }

    /// The labels, most-specific first.
    pub fn labels(&self) -> &[String] {
        &self.labels
    }

    /// Number of labels.
    pub fn label_count(&self) -> usize {
        self.labels.len()
    }

    /// True if this is the root name.
    pub fn is_root(&self) -> bool {
        self.labels.is_empty()
    }

    /// Length of this name in wire encoding (uncompressed): one length octet
    /// per label plus the label bytes, plus the terminating zero octet.
    pub fn wire_len(&self) -> usize {
        self.labels.iter().map(|l| l.len() + 1).sum::<usize>() + 1
    }

    /// True if `self` is a subdomain of `ancestor` (proper or equal).
    pub fn is_subdomain_of(&self, ancestor: &DnsName) -> bool {
        self.labels.ends_with(&ancestor.labels)
    }

    /// The parent name (None at the root).
    pub fn parent(&self) -> Option<DnsName> {
        self.labels.split_first().map(|(_, rest)| DnsName {
            labels: rest.to_vec().into(),
        })
    }

    /// Prepend a label, producing a child name. A dotted `label` prepends
    /// each of its labels, exactly as parsing `"{label}.{self}"` would.
    pub fn child(&self, label: &str) -> Result<DnsName, NameError> {
        if self.is_root() {
            return DnsName::parse(label);
        }
        let mut labels = Vec::with_capacity(self.labels.len() + 1);
        for l in label.split('.') {
            labels.push(canonical_label(l)?);
        }
        labels.extend(self.labels.iter().cloned());
        DnsName::checked(labels)
    }

    /// True if the leftmost label is `*` (wildcard owner name).
    pub fn is_wildcard(&self) -> bool {
        self.labels.first().map(|l| l == "*").unwrap_or(false)
    }

    /// Replace the leftmost label with `*`.
    ///
    /// # Panics
    /// Panics on the root name.
    pub fn to_wildcard(&self) -> DnsName {
        assert!(!self.is_root(), "root has no wildcard form");
        let mut labels = self.labels.to_vec();
        // tft-lint: allow(no-panic-on-untrusted-bytes, reason = "documented API-contract panic: the assert above guarantees a leftmost label")
        labels[0] = "*".to_string();
        DnsName {
            labels: labels.into(),
        }
    }
}

impl fmt::Display for DnsName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let Some((first, rest)) = self.labels.split_first() else {
            return f.write_str(".");
        };
        f.write_str(first)?;
        for label in rest {
            f.write_str(".")?;
            f.write_str(label)?;
        }
        Ok(())
    }
}

/// Validate one presentation-format label and lowercase it.
fn canonical_label(label: &str) -> Result<String, NameError> {
    if label.is_empty() {
        return Err(NameError::EmptyLabel);
    }
    if label.len() > MAX_LABEL_LEN {
        return Err(NameError::LabelTooLong(label.to_string()));
    }
    for c in label.chars() {
        // Hostname-safe plus underscore (seen in real zones) and '*'
        // (wildcard owner names).
        if !(c.is_ascii_alphanumeric() || c == '-' || c == '_' || c == '*') {
            return Err(NameError::BadCharacter(c));
        }
    }
    Ok(label.to_ascii_lowercase())
}

impl FromStr for DnsName {
    type Err = NameError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        DnsName::parse(s)
    }
}

impl substrate::json::ToJson for DnsName {
    fn to_json(&self) -> substrate::json::Json {
        substrate::json::Json::Str(self.to_string())
    }
}

impl substrate::json::FromJson for DnsName {
    fn from_json(v: &substrate::json::Json) -> Result<Self, substrate::json::JsonError> {
        let s = v
            .as_str()
            .ok_or_else(|| substrate::json::JsonError::shape("DnsName: expected string"))?;
        DnsName::parse(s).map_err(|e| substrate::json::JsonError::shape(format!("DnsName: {e}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_display() {
        let n = DnsName::parse("WWW.Example.COM").unwrap();
        assert_eq!(n.to_string(), "www.example.com");
        assert_eq!(n.label_count(), 3);
    }

    #[test]
    fn trailing_dot_is_accepted() {
        assert_eq!(
            DnsName::parse("example.com.").unwrap(),
            DnsName::parse("example.com").unwrap()
        );
    }

    #[test]
    fn case_insensitive_equality() {
        assert_eq!(
            DnsName::parse("FOO.bar").unwrap(),
            DnsName::parse("foo.BAR").unwrap()
        );
    }

    #[test]
    fn rejects_bad_names() {
        assert_eq!(DnsName::parse("a..b"), Err(NameError::EmptyLabel));
        assert!(matches!(
            DnsName::parse(&format!("{}.com", "x".repeat(64))),
            Err(NameError::LabelTooLong(_))
        ));
        assert_eq!(
            DnsName::parse("sp ace.com"),
            Err(NameError::BadCharacter(' '))
        );
        let long = vec!["abcdefgh"; 32].join(".");
        assert_eq!(DnsName::parse(&long), Err(NameError::NameTooLong));
    }

    #[test]
    fn subdomain_relation() {
        let parent = DnsName::parse("example.com").unwrap();
        let child = DnsName::parse("a.b.example.com").unwrap();
        assert!(child.is_subdomain_of(&parent));
        assert!(parent.is_subdomain_of(&parent));
        assert!(!parent.is_subdomain_of(&child));
        assert!(child.is_subdomain_of(&DnsName::root()));
    }

    #[test]
    fn parent_chain_terminates() {
        let mut n = DnsName::parse("a.b.c").unwrap();
        let mut hops = 0;
        while let Some(p) = n.parent() {
            n = p;
            hops += 1;
        }
        assert_eq!(hops, 3);
        assert!(n.is_root());
    }

    #[test]
    fn child_builds_subdomain() {
        let base = DnsName::parse("example.com").unwrap();
        let c = base.child("probe1").unwrap();
        assert_eq!(c.to_string(), "probe1.example.com");
        assert!(c.is_subdomain_of(&base));
    }

    #[test]
    fn child_matches_parsing_the_joined_name() {
        let base = DnsName::parse("Example.COM").unwrap();
        for label in ["x", "A-b", "a.b", "", "a..b", "sp ace", &"y".repeat(64)] {
            assert_eq!(
                base.child(label),
                DnsName::parse(&format!("{label}.{base}")),
                "label {label:?}"
            );
        }
        let long = DnsName::parse(&vec!["abcdefgh"; 28].join(".")).unwrap();
        assert_eq!(long.child("abcdefgh"), Err(NameError::NameTooLong));
        assert_eq!(
            DnsName::root().child("x").unwrap(),
            DnsName::parse("x").unwrap()
        );
    }

    #[test]
    fn display_separates_labels() {
        assert_eq!(DnsName::parse("a.b.c").unwrap().to_string(), "a.b.c");
        assert_eq!(DnsName::parse("a").unwrap().to_string(), "a");
        assert_eq!(DnsName::root().to_string(), ".");
    }

    #[test]
    fn wildcard_handling() {
        let n = DnsName::parse("foo.example.com").unwrap();
        let w = n.to_wildcard();
        assert_eq!(w.to_string(), "*.example.com");
        assert!(w.is_wildcard());
        assert!(!n.is_wildcard());
    }

    #[test]
    fn wire_len_counts_length_octets() {
        // "ab.cd" -> 1+2 + 1+2 + 1 = 7
        assert_eq!(DnsName::parse("ab.cd").unwrap().wire_len(), 7);
        assert_eq!(DnsName::root().wire_len(), 1);
    }
}
