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
//!
//! ## Runs and the scanner thread
//!
//! No key stream is stored. [`Tokens::scan`] hands the keys to a
//! caller-supplied sink in input order, in runs of [`CHUNK`] keys (the
//! last run may be shorter), and keeps only the first-seen table and the
//! token count. The sink sees the keys a `Vec` of the whole input would
//! hold, in the same order, so any state it builds one key at a time is
//! the same as before.
//!
//! A sketching sink also passes a [`RowHasher`] cloned from its sketch,
//! and gets each key's `t` row cells (one `u32` word a row: cell index
//! and sign) beside the keys, so it only adds to counters. Sinks that do
//! not sketch pass no hasher and get no cells.
//!
//! The caller's thread scans the first run itself. Only if tokens remain
//! after it does the scan move to one scoped thread, which fills the
//! following runs while the caller's thread runs the sink; a bounded
//! channel keeps the scanner at most [`RUNS_AHEAD`] runs ahead, and the
//! sink hands each emptied run, keys and cells, back for reuse, so at
//! most `RUNS_AHEAD + 2` runs exist at once. Row hashing goes to the
//! thread that would otherwise wait: the scanner hashes a run only when
//! the channel is full, which means the sink is behind, and the caller's
//! thread hashes every run that arrives without cells. A large sketch,
//! whose cache-missing updates make the sink the slow stage, thus gets
//! most runs hashed ahead, while a small one, whose scan is the slow
//! stage, leaves the scanner as fast as it was. An input of one run or
//! less starts no thread: a spawn costs about as much as sketching a
//! short input. If the spawn fails, the caller's thread scans the rest
//! itself.
//!
//! A sink that returns an error ends the scan. Returning drops the run
//! receiver, so the scanner's next send fails and it stops; the scope
//! joins it before [`Tokens::scan`] returns the error, so no thread
//! outlives the call and none waits on a receiver that is gone.

use cs_core::RowHasher;
use cs_hash::mix::{finalize, Fnv1a};
use cs_hash::ItemKey;
use cs_stream::Stream;
use std::collections::HashMap;
use std::convert::Infallible;
use std::hash::Hasher;
use std::ops::Range;
use std::sync::mpsc::{channel, sync_channel, TrySendError};
use std::thread::{self, Scope};

/// Keys in one run handed to a sink: 64 KiB.
pub const CHUNK: usize = 8192;

/// Filled runs the scanner thread may queue before it waits for the
/// sink.
const RUNS_AHEAD: usize = 2;

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

/// The first byte at or after `from` that is not whitespace, or the end
/// of `text`.
#[inline]
fn skip_space(text: &str, mut from: usize) -> usize {
    while from < text.len() {
        match space_len(text, from) {
            Some(width) => from += width,
            None => break,
        }
    }
    from
}

/// The first token at or after byte `from`: its byte span and its key.
#[inline]
fn next_token(text: &str, from: usize) -> Option<(Range<usize>, ItemKey)> {
    let bytes = text.as_bytes();
    let start = skip_space(text, from);
    if start == bytes.len() {
        return None;
    }
    let mut i = start;
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

/// One scanned input: how many tokens it held and, for every distinct
/// key, where the key first occurred, so labels resolve as slices of the
/// input. While the scan runs it is the scan's state, which moves to
/// the scanner thread and comes back when that thread is joined.
#[derive(Debug)]
pub struct Tokens<'a> {
    text: &'a str,
    /// Byte offset of the next token to scan; the end of the text once
    /// the scan is over.
    at: usize,
    first_seen: FirstSeen,
    len: usize,
}

/// One run for a sink: up to [`CHUNK`] keys and, once hashed, their
/// cell words (`t` a key, in key order).
#[derive(Debug, Default)]
struct Run {
    keys: Vec<ItemKey>,
    cells: Vec<u32>,
}

impl Run {
    /// Computes the run's cell words with `hasher`, if there is one and
    /// no thread has yet.
    fn hash(&mut self, hasher: Option<&RowHasher>) {
        if let Some(hasher) = hasher {
            if self.cells.is_empty() {
                hasher.hash_keys(&self.keys, &mut self.cells);
            }
        }
    }
}

impl<'a> Tokens<'a> {
    /// Scans `text` once: splits it, keys every token and records the
    /// first occurrence of every distinct key. Every token's key goes to
    /// `sink`, in input order, in runs of [`CHUNK`] keys; only the last
    /// run may be shorter, and an input without tokens calls `sink`
    /// never. With a `hasher`, the sink also gets each run's cell words;
    /// without one its second argument is empty. The runs after the first
    /// are scanned on a second, scoped thread that stays a few runs ahead
    /// of `sink`; it is joined before this returns, also when `sink`
    /// fails.
    ///
    /// The first error `sink` returns ends the scan and is returned.
    pub fn scan<E>(
        text: &'a str,
        hasher: Option<&RowHasher>,
        sink: impl FnMut(&[ItemKey], &[u32]) -> Result<(), E>,
    ) -> Result<Self, E> {
        Self::scan_on(text, hasher, sink, true)
    }

    /// [`Tokens::scan`], with the scanner thread only if `pipelined`:
    /// without it, the caller's thread scans every run, as it does when
    /// the spawn fails.
    fn scan_on<E>(
        text: &'a str,
        hasher: Option<&RowHasher>,
        mut sink: impl FnMut(&[ItemKey], &[u32]) -> Result<(), E>,
        pipelined: bool,
    ) -> Result<Self, E> {
        let mut tokens = Tokens {
            text,
            at: skip_space(text, 0),
            first_seen: FirstSeen::default(),
            len: 0,
        };
        let mut run = Run::default();
        tokens.fill(&mut run);
        let piped = pipelined
            && !tokens.done()
            && thread::scope(|s| tokens.pipeline(s, hasher, &mut run, &mut sink))?;
        if !piped {
            while !run.keys.is_empty() {
                run.hash(hasher);
                sink(&run.keys, &run.cells)?;
                tokens.fill(&mut run);
            }
        }
        Ok(tokens)
    }

    /// True once every token has been scanned.
    fn done(&self) -> bool {
        self.at == self.text.len()
    }

    /// Replaces `run` with the keys of the next [`CHUNK`] tokens, or of
    /// all that are left if fewer, not yet hashed, and records their
    /// first occurrences.
    ///
    /// Keys reach the table in runs of `INSERT_RUN`: the probes of one
    /// run depend on nothing but the keys, so their cache misses overlap
    /// once the table outgrows the cache.
    fn fill(&mut self, run: &mut Run) {
        run.cells.clear();
        let keys = &mut run.keys;
        keys.clear();
        keys.reserve(CHUNK);
        let mut starts = [0; INSERT_RUN];
        while keys.len() < CHUNK {
            let Some((span, key)) = next_token(self.text, self.at) else {
                break;
            };
            self.at = span.end;
            starts[keys.len() % INSERT_RUN] = span.start;
            keys.push(key);
            if keys.len().is_multiple_of(INSERT_RUN) {
                self.first_seen
                    .insert_run(&keys[keys.len() - INSERT_RUN..], &starts);
            }
        }
        let tail = keys.len() % INSERT_RUN;
        self.first_seen
            .insert_run(&keys[keys.len() - tail..], &starts[..tail]);
        self.at = skip_space(self.text, self.at);
        self.len += keys.len();
    }

    /// Feeds `first`, then every later run, to `sink`, while a scoped
    /// thread fills the later runs; `first`'s buffers go to the scanner
    /// for reuse. `Ok(false)` if the thread could not be spawned; `sink`
    /// has then seen nothing and `first` is untouched.
    fn pipeline<'scope, E>(
        &'scope mut self,
        scope: &'scope Scope<'scope, '_>,
        hasher: Option<&'scope RowHasher>,
        first: &mut Run,
        sink: &mut impl FnMut(&[ItemKey], &[u32]) -> Result<(), E>,
    ) -> Result<bool, E> {
        let (full, runs) = sync_channel::<Run>(RUNS_AHEAD);
        let (spare, spares) = channel::<Run>();
        let scan = move || {
            while !self.done() {
                let mut run = spares.try_recv().unwrap_or_default();
                self.fill(&mut run);
                // A full channel means the sink is behind and this thread
                // would wait, so it hashes the run first.
                let run = match full.try_send(run) {
                    Ok(()) => continue,
                    Err(TrySendError::Full(mut run)) => {
                        run.hash(hasher);
                        run
                    }
                    Err(TrySendError::Disconnected(_)) => break,
                };
                if full.send(run).is_err() {
                    // The sink failed and dropped the receiver.
                    break;
                }
            }
        };
        if thread::Builder::new()
            .name("fi-scan".into())
            .spawn_scoped(scope, scan)
            .is_err()
        {
            return Ok(false);
        }
        first.hash(hasher);
        sink(&first.keys, &first.cells)?;
        spare.send(std::mem::take(first)).ok();
        for mut run in runs {
            run.hash(hasher);
            sink(&run.keys, &run.cells)?;
            // Fails only once the scanner has finished and needs no buffer.
            spare.send(run).ok();
        }
        Ok(true)
    }

    /// The number of tokens: every key the sink was given.
    pub fn occurrences(&self) -> usize {
        self.len
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
/// textual form copied out for display. It collects what [`Tokens::scan`]
/// hands its sink and copies every label; `fi` itself does neither, it
/// sketches each run as it arrives and resolves the few labels a report
/// prints with [`Tokens::label`].
pub fn tokenize(text: &str) -> (Stream, HashMap<ItemKey, String>) {
    let mut keys = Vec::new();
    let Ok(tokens) = Tokens::scan(text, None, |run, _| {
        keys.extend_from_slice(run);
        Ok::<_, Infallible>(())
    });
    let labels = tokens
        .first_seen
        .slots()
        .map(|(key, start)| (key, tokens.token_at(start).to_string()))
        .collect();
    (Stream::from_keys(keys), labels)
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
    use cs_core::{CountSketch, SketchParams};
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

    /// The runs `Tokens::scan` hands its sink, and the scan. The runs
    /// must not depend on whether the scanner thread ran or hashed: with
    /// a row hasher each run's cells are its keys' words, and without
    /// one they are empty.
    fn scan_runs(text: &str) -> (Tokens<'_>, Vec<Vec<ItemKey>>) {
        let hasher = CountSketch::new(SketchParams::new(3, 64), 7)
            .row_hasher()
            .unwrap();
        let mut expected = Vec::new();
        let [(tokens, runs), (_, inline), (_, hashed), (_, hashed_inline)] = [
            (true, None),
            (false, None),
            (true, Some(&hasher)),
            (false, Some(&hasher)),
        ]
        .map(|(pipelined, hasher)| {
            let mut runs = Vec::new();
            let Ok(tokens) = Tokens::scan_on(
                text,
                hasher,
                |keys, cells| {
                    match hasher {
                        Some(h) => h.hash_keys(keys, &mut expected),
                        None => expected.clear(),
                    }
                    assert!(cells == expected, "cells of a {}-key run", keys.len());
                    runs.push(keys.to_vec());
                    Ok::<_, Infallible>(())
                },
                pipelined,
            );
            (tokens, runs)
        });
        assert!(runs == inline, "{} runs", runs.len());
        assert!(
            runs == hashed && runs == hashed_inline,
            "{} runs",
            runs.len()
        );
        (tokens, runs)
    }

    fn assert_matches_reference(text: &str) {
        let (keys, labels) = reference(text);
        let (tokens, runs) = scan_runs(text);
        assert_eq!(runs.concat(), keys, "{text:?}");
        assert_eq!(tokens.occurrences(), keys.len(), "{text:?}");
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
        let (tokens, _) = scan_runs("b a\u{3000}b\u{85}c a");
        assert_eq!(tokens.occurrences(), 5);
        assert_eq!(tokens.distinct(), 3);
        assert_eq!(tokens.label(ItemKey::of("a")), Some("a"));
        assert_eq!(tokens.label(ItemKey::of("c")), Some("c"));
        assert_eq!(tokens.label(ItemKey::of("zz")), None);
        assert_eq!(scan_runs("").0.label(ItemKey::of("a")), None);
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
        let (tokens, _) = scan_runs(&text);
        assert_eq!(tokens.distinct(), 10_000);
        assert_eq!(tokens.first_seen.slots.len(), 32_768);
        assert_eq!(tokens.keys().count(), 10_000);
        for i in (0..10_000).step_by(7) {
            let tok = format!("t{i}");
            assert_eq!(tokens.label(ItemKey::of(&tok)), Some(tok.as_str()));
        }
        assert_matches_reference(&text);
    }

    #[test]
    fn runs_are_full_chunks_across_run_boundaries() {
        // Multi-byte whitespace (U+3000, U+0085) on both sides of every
        // run boundary; "é" shares no lead byte with whitespace, "\u{A0}"
        // does.
        for n in [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 17] {
            for trailing in ["", "\u{3000}\u{85}"] {
                let mut text = String::new();
                for i in 0..n {
                    let at_boundary = matches!(i % CHUNK, 0 | 1 | CHUNK_LAST);
                    text.push_str(if at_boundary { "\u{85}\u{3000}" } else { " " });
                    text.push_str(&format!("é{}", i % 3000));
                }
                text.push_str(trailing);
                let (tokens, runs) = scan_runs(&text);
                assert_eq!(tokens.occurrences(), n);
                assert_eq!(runs.len(), n.div_ceil(CHUNK), "n = {n}");
                if let Some((_, full)) = runs.split_last() {
                    assert!(full.iter().all(|run| run.len() == CHUNK), "n = {n}");
                }
                assert_matches_reference(&text);
            }
        }
    }

    /// The last key index of a run.
    const CHUNK_LAST: usize = CHUNK - 1;

    #[test]
    fn a_failing_sink_ends_the_scan() {
        // Ten runs: the scanner thread is running when the sink fails,
        // and must stop rather than wait on the dropped receiver.
        let text = "a ".repeat(10 * CHUNK);
        let mut calls = 0;
        let scanned = Tokens::scan(&text, None, |_, _| {
            calls += 1;
            if calls == 2 {
                Err("full")
            } else {
                Ok(())
            }
        });
        assert!(matches!(scanned, Err("full")));
        assert_eq!(calls, 2);
    }

    #[test]
    fn runs_hashed_on_either_thread_carry_their_own_cells() {
        // Ten runs and a sink that is slow on the first: the channel
        // fills, so the scanner hashes some runs and the caller's thread
        // the others. Each run's cells must be its own keys' words.
        let text: String = (0..10 * CHUNK).map(|i| format!("k{} ", i % 5000)).collect();
        let hasher = CountSketch::new(SketchParams::new(7, 4096), 3)
            .row_hasher()
            .unwrap();
        let (mut runs, mut want) = (0, Vec::new());
        let Ok(tokens) = Tokens::scan(&text, Some(&hasher), |keys, cells| {
            let busy = if runs == 0 { 50 } else { 1 };
            for _ in 0..busy {
                hasher.hash_keys(keys, &mut want);
            }
            assert!(cells == want, "run {runs}");
            runs += 1;
            Ok::<_, Infallible>(())
        });
        assert_eq!((runs, tokens.occurrences()), (10, 10 * CHUNK));
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
