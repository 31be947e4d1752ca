//! Order-independent digests of simulated outputs.
//!
//! A digest is the FNV-1a hash (the workspace's stable content hash,
//! `rmt3d_obs::fnv1a`) of `key\tvalue\n` lines sorted by key, so it
//! does not depend on the order jobs ran or finished in.

use rmt3d_obs::fnv1a;

/// 16-hex-digit FNV-1a of one value.
pub fn hash_hex(bytes: &[u8]) -> String {
    format!("{:016x}", fnv1a(bytes))
}

/// Digest of `(key, value)` pairs, independent of their order.
///
/// # Panics
///
/// Panics when two entries share a key: a keyed digest must name each
/// output once.
pub fn keyed(entries: &[(String, String)]) -> String {
    let mut sorted: Vec<&(String, String)> = entries.iter().collect();
    sorted.sort();
    for w in sorted.windows(2) {
        assert_ne!(w[0].0, w[1].0, "duplicate digest key");
    }
    let mut text = String::new();
    for (k, v) in sorted {
        text.push_str(k);
        text.push('\t');
        text.push_str(v);
        text.push('\n');
    }
    hash_hex(text.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pairs(v: &[(&str, &str)]) -> Vec<(String, String)> {
        v.iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect()
    }

    #[test]
    fn hash_is_pinned() {
        // FNV-1a 64 test vectors; a change here would silently
        // invalidate every committed expectation.
        assert_eq!(hash_hex(b""), "cbf29ce484222325");
        assert_eq!(hash_hex(b"a"), "af63dc4c8601ec8c");
        assert_eq!(
            keyed(&pairs(&[("2d-a/gzip", "x"), ("3d-2a/mcf", "y")])),
            hash_hex(b"2d-a/gzip\tx\n3d-2a/mcf\ty\n")
        );
    }

    #[test]
    fn digest_ignores_order_but_not_content() {
        let a = keyed(&pairs(&[("a", "1"), ("b", "2"), ("c", "3")]));
        let b = keyed(&pairs(&[("c", "3"), ("a", "1"), ("b", "2")]));
        assert_eq!(a, b);
        assert_ne!(a, keyed(&pairs(&[("a", "1"), ("b", "2"), ("c", "4")])));
        assert_ne!(a, keyed(&pairs(&[("a", "1"), ("b", "2")])));
        // Key/value boundaries are part of the content.
        assert_ne!(keyed(&pairs(&[("ab", "c")])), keyed(&pairs(&[("a", "bc")])));
    }

    #[test]
    #[should_panic(expected = "duplicate digest key")]
    fn duplicate_keys_are_refused() {
        keyed(&pairs(&[("a", "1"), ("a", "2")]));
    }
}
