//! The `fi` front end: one pass over the input bytes that splits it into
//! tokens, derives each token's [`ItemKey`] and records where every
//! distinct key first occurred.
//!
//! * **Splitting** follows [`str::split_whitespace`] exactly, i.e. the
//!   Unicode `White_Space` property. A 256-entry table classifies each
//!   byte; the ASCII whitespace bytes are 0x09–0x0D and 0x20 (0x0B
//!   included, unlike [`u8::is_ascii_whitespace`]). Only the four lead
//!   bytes that can begin a multi-byte whitespace character (0xC2, 0xE1,
//!   0xE2, 0xE3) are decoded as a `char`; every other byte is part of a
//!   token.
//! * **Keys** are FNV-1a over the token's bytes, fed while the bytes are
//!   scanned, then the `0xff` terminator that `str`'s `Hash` adds and the
//!   SplitMix finalizer: bit for bit [`ItemKey::of`] of the token.
//! * **Labels** are not copied. An open-addressed table maps each
//!   distinct key to the byte offset of its first occurrence; a label is
//!   the token starting there, sliced out of the input when a report
//!   prints it.

use cs_hash::mix::{finalize, Fnv1a};
use cs_hash::ItemKey;
use cs_stream::Stream;
use std::collections::HashMap;
use std::hash::Hasher;
use std::ops::Range;

/// Byte class: part of a token.
const TOKEN: u8 = 0;
/// Byte class: a one-byte whitespace character.
const SPACE: u8 = 1;
/// Byte class: a lead byte that may begin a multi-byte whitespace
/// character (U+0085, U+00A0, U+1680, U+2000–U+200A, U+2028, U+2029,
/// U+202F, U+205F, U+3000).
const LEAD: u8 = 2;

const CLASS: [u8; 256] = {
    let mut class = [TOKEN; 256];
    let mut b = 0x09;
    while b <= 0x0D {
        class[b] = SPACE;
        b += 1;
    }
    class[0x20] = SPACE;
    class[0xC2] = LEAD;
    class[0xE1] = LEAD;
    class[0xE2] = LEAD;
    class[0xE3] = LEAD;
    class
};

/// Byte length of the whitespace character at byte `i` of `text`, or
/// `None` if `i` is not whitespace. `i` must be a char boundary whenever
/// the byte there is a [`LEAD`] byte, which holds for every lead byte of
/// valid UTF-8.
#[inline]
fn space_len(text: &str, i: usize) -> Option<usize> {
    match CLASS[usize::from(text.as_bytes()[i])] {
        TOKEN => None,
        SPACE => Some(1),
        _ => text[i..]
            .chars()
            .next()
            .filter(|c| c.is_whitespace())
            .map(char::len_utf8),
    }
}

/// The first token at or after byte `from`: its byte span and its key.
#[inline]
fn next_token(text: &str, from: usize) -> Option<(Range<usize>, ItemKey)> {
    let bytes = text.as_bytes();
    let mut i = from;
    loop {
        if i == bytes.len() {
            return None;
        }
        match space_len(text, i) {
            Some(width) => i += width,
            None => break,
        }
    }
    let start = i;
    let mut h = Fnv1a::new();
    while i < bytes.len() {
        let b = bytes[i];
        if CLASS[usize::from(b)] != TOKEN && space_len(text, i).is_some() {
            break;
        }
        h.write_u8(b);
        i += 1;
    }
    h.write_u8(0xff);
    Some((start..i, ItemKey(finalize(h.finish()))))
}

/// Calls `f(key, span)` for every whitespace-separated token of `text`,
/// in order: the same tokens as `text.split_whitespace()`, with
/// `key == ItemKey::of(&text[span])`.
pub(crate) fn for_each_token(text: &str, mut f: impl FnMut(ItemKey, Range<usize>)) {
    let mut at = 0;
    while let Some((span, key)) = next_token(text, at) {
        at = span.end;
        f(key, span);
    }
}

/// Tokens scanned before their keys are inserted into the table.
const INSERT_RUN: usize = 64;

/// One scanned input: its key stream and, for every distinct key, where
/// the key first occurred, so labels resolve as slices of the input.
#[derive(Debug)]
pub struct Tokens<'a> {
    text: &'a str,
    stream: Stream,
    first_seen: FirstSeen,
}

impl<'a> Tokens<'a> {
    /// Scans `text` once: splits it, keys every token and records the
    /// first occurrence of every distinct key.
    ///
    /// Keys reach the table in runs of `INSERT_RUN`: the probes of one
    /// run depend on nothing but the keys, so their cache misses overlap
    /// once the table outgrows the cache.
    pub fn scan(text: &'a str) -> Self {
        let mut keys = Vec::new();
        let mut starts = Vec::with_capacity(INSERT_RUN);
        let mut first_seen = FirstSeen::default();
        for_each_token(text, |key, span| {
            keys.push(key);
            starts.push(span.start);
            if starts.len() == INSERT_RUN {
                first_seen.insert_run(&keys[keys.len() - INSERT_RUN..], &starts);
                starts.clear();
            }
        });
        first_seen.insert_run(&keys[keys.len() - starts.len()..], &starts);
        Tokens {
            text,
            stream: Stream::from_keys(keys),
            first_seen,
        }
    }

    /// Every token's key, in input order.
    pub fn stream(&self) -> &Stream {
        &self.stream
    }

    /// The exact number of distinct keys.
    pub fn distinct(&self) -> usize {
        self.first_seen.len
    }

    /// The distinct keys, in table order.
    pub fn keys(&self) -> impl Iterator<Item = ItemKey> + '_ {
        self.first_seen.slots().map(|(key, _)| key)
    }

    /// The first token that had `key`, sliced out of the input; `None`
    /// if no token of this input had it.
    pub fn label(&self, key: ItemKey) -> Option<&'a str> {
        self.first_seen.get(key).map(|start| self.token_at(start))
    }

    /// The token starting at `start`, an offset the scan recorded.
    fn token_at(&self, start: usize) -> &'a str {
        let (span, _) = next_token(self.text, start).expect("a recorded offset starts a token");
        &self.text[span]
    }
}

/// Tokenizes input text into a stream of items, with each key's first
/// textual form copied out for display. A view over [`Tokens::scan`]
/// that owns its labels; `fi` itself does not call it, it resolves the
/// few labels a report prints with [`Tokens::label`].
pub fn tokenize(text: &str) -> (Stream, HashMap<ItemKey, String>) {
    let tokens = Tokens::scan(text);
    let labels = tokens
        .first_seen
        .slots()
        .map(|(key, start)| (key, tokens.token_at(start).to_string()))
        .collect();
    (tokens.stream, labels)
}

/// One slot of [`FirstSeen`].
#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    key: u64,
    /// Byte offset of the key's first occurrence plus one, so that 0
    /// marks an empty slot.
    first: usize,
}

/// Open-addressed map from a distinct key to the byte offset of its
/// first occurrence: linear probing, at most half full. Keys are
/// already SplitMix-mixed, so their low bits index the table directly.
#[derive(Debug, Default)]
struct FirstSeen {
    slots: Vec<Slot>,
    len: usize,
}

impl FirstSeen {
    /// Records `offsets[i]` for `keys[i]`, in order, for every key not
    /// already present.
    fn insert_run(&mut self, keys: &[ItemKey], offsets: &[usize]) {
        for (&key, &offset) in keys.iter().zip(offsets) {
            self.insert(key, offset);
        }
    }

    /// Records `offset` for `key` unless the key is already present.
    #[inline]
    fn insert(&mut self, key: ItemKey, offset: usize) {
        if 2 * (self.len + 1) > self.slots.len() {
            self.grow();
        }
        let i = self.probe(key.raw());
        if self.slots[i].first == 0 {
            self.slots[i] = Slot {
                key: key.raw(),
                first: offset + 1,
            };
            self.len += 1;
        }
    }

    /// The recorded offset for `key`.
    fn get(&self, key: ItemKey) -> Option<usize> {
        if self.slots.is_empty() {
            return None;
        }
        let slot = self.slots[self.probe(key.raw())];
        slot.first.checked_sub(1)
    }

    /// The slot holding `key`, or the empty slot where it belongs.
    #[inline]
    fn probe(&self, key: u64) -> usize {
        let mask = self.slots.len() - 1;
        let mut i = key as usize & mask;
        while self.slots[i].first != 0 && self.slots[i].key != key {
            i = (i + 1) & mask;
        }
        i
    }

    /// Doubles the table (16 slots at first) and reinserts every entry.
    fn grow(&mut self) {
        let capacity = (2 * self.slots.len()).max(16);
        let old = std::mem::replace(&mut self.slots, vec![Slot::default(); capacity]);
        for slot in old.into_iter().filter(|s| s.first != 0) {
            let i = self.probe(slot.key);
            self.slots[i] = slot;
        }
    }

    /// Every `(key, offset)` entry, in table order.
    fn slots(&self) -> impl Iterator<Item = (ItemKey, usize)> + '_ {
        self.slots
            .iter()
            .filter(|s| s.first != 0)
            .map(|s| (ItemKey(s.key), s.first - 1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Every char with the Unicode `White_Space` property.
    const WHITE_SPACE: [char; 25] = [
        '\u{09}', '\u{0A}', '\u{0B}', '\u{0C}', '\u{0D}', '\u{20}', '\u{85}', '\u{A0}', '\u{1680}',
        '\u{2000}', '\u{2001}', '\u{2002}', '\u{2003}', '\u{2004}', '\u{2005}', '\u{2006}',
        '\u{2007}', '\u{2008}', '\u{2009}', '\u{200A}', '\u{2028}', '\u{2029}', '\u{202F}',
        '\u{205F}', '\u{3000}',
    ];

    /// Token pieces: ASCII, U+200B (not whitespace), multi-byte chars
    /// including ones that share a lead byte with whitespace (U+00E9
    /// and U+00A9 start with 0xC3/0xC2, U+2010 and U+3001 with
    /// 0xE2/0xE3), and the control bytes next to the whitespace range.
    const TOKEN_PIECES: [&str; 14] = [
        "a", "b", "ab", "x1", "\u{200B}", "é", "©", "‐", "、", "日本", "😀", "\u{1C}", "\u{1F}",
        "ñx",
    ];

    /// Reference: what `fi` computed before the scanner.
    fn reference(text: &str) -> (Vec<ItemKey>, HashMap<ItemKey, &str>) {
        let mut labels = HashMap::new();
        let keys = text
            .split_whitespace()
            .map(|tok| {
                let key = ItemKey::of(tok);
                labels.entry(key).or_insert(tok);
                key
            })
            .collect();
        (keys, labels)
    }

    fn assert_matches_reference(text: &str) {
        let (keys, labels) = reference(text);
        let tokens = Tokens::scan(text);
        assert_eq!(tokens.stream().as_slice(), keys.as_slice(), "{text:?}");
        assert_eq!(tokens.distinct(), labels.len(), "{text:?}");
        for (&key, &label) in &labels {
            assert_eq!(tokens.label(key), Some(label), "{text:?}");
        }
        let (stream, owned) = tokenize(text);
        assert_eq!(stream.as_slice(), keys.as_slice());
        assert_eq!(owned.len(), labels.len());
        assert!(owned.iter().all(|(k, l)| labels[k] == l));
    }

    #[test]
    fn classes_cover_every_whitespace_char() {
        // Exhaustive over all chars: a char is whitespace iff the
        // scanner says so, and every whitespace char's first byte is a
        // SPACE or LEAD byte.
        let mut buf = [0u8; 4];
        for c in (0..=0x10FFFFu32).filter_map(char::from_u32) {
            let s: &str = c.encode_utf8(&mut buf);
            assert_eq!(space_len(s, 0).is_some(), c.is_whitespace(), "{c:?}");
            if c.is_whitespace() {
                assert_eq!(space_len(s, 0), Some(c.len_utf8()), "{c:?}");
            }
        }
        for c in WHITE_SPACE {
            assert!(c.is_whitespace(), "{c:?}");
        }
    }

    #[test]
    fn edge_cases_match_split_whitespace() {
        for text in [
            "",
            " ",
            "\u{3000}\u{85}\u{0B}",
            "a",
            "\u{A0}a\u{A0}",
            "a\u{200B}b c",
            "\u{200B}",
            "é\u{2029}é é\u{202F}日本",
            "a\u{0B}b\u{1C}c",
        ] {
            assert_matches_reference(text);
        }
    }

    #[test]
    fn labels_resolve_first_occurrence_and_unknown_keys() {
        let tokens = Tokens::scan("b a\u{3000}b\u{85}c a");
        assert_eq!(tokens.stream().len(), 5);
        assert_eq!(tokens.distinct(), 3);
        assert_eq!(tokens.label(ItemKey::of("a")), Some("a"));
        assert_eq!(tokens.label(ItemKey::of("c")), Some("c"));
        assert_eq!(tokens.label(ItemKey::of("zz")), None);
        assert_eq!(Tokens::scan("").label(ItemKey::of("a")), None);
        let mut keys: Vec<_> = tokens.keys().collect();
        keys.sort_unstable();
        let mut expected = vec![ItemKey::of("a"), ItemKey::of("b"), ItemKey::of("c")];
        expected.sort_unstable();
        assert_eq!(keys, expected);
    }

    #[test]
    fn table_grows_past_several_resizes() {
        // 16 → 32768 slots: eleven doublings, each reinserting every
        // entry; every label must survive all of them.
        let text: String = (0..10_000).map(|i| format!("t{i} t{} ", i / 2)).collect();
        let tokens = Tokens::scan(&text);
        assert_eq!(tokens.distinct(), 10_000);
        assert_eq!(tokens.first_seen.slots.len(), 32_768);
        assert_eq!(tokens.keys().count(), 10_000);
        for i in (0..10_000).step_by(7) {
            let tok = format!("t{i}");
            assert_eq!(tokens.label(ItemKey::of(&tok)), Some(tok.as_str()));
        }
        assert_matches_reference(&text);
    }

    fn piece() -> impl Strategy<Value = String> {
        (0..WHITE_SPACE.len() + TOKEN_PIECES.len()).prop_map(|i| match WHITE_SPACE.get(i) {
            Some(c) => c.to_string(),
            None => TOKEN_PIECES[i - WHITE_SPACE.len()].to_string(),
        })
    }

    proptest! {
        #[test]
        fn prop_scan_matches_split_whitespace(pieces in prop::collection::vec(piece(), 0..40)) {
            assert_matches_reference(&pieces.concat());
        }
    }
}
