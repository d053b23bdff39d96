//! Hash-function substrate for the Count-Sketch library.
//!
//! The analysis in Charikar, Chen & Farach-Colton ("Finding frequent items
//! in data streams") requires, for each of the `t` rows of the sketch,
//!
//! * a **bucket hash** `h_i : O -> {1, ..., b}` that is pairwise
//!   independent, and
//! * a **sign hash** `s_i : O -> {+1, -1}` that is pairwise independent,
//!
//! with all `2t` functions mutually independent. The paper notes the total
//! randomness needed is `O(t log m)` bits; concretely each of our functions
//! stores O(1) 64-bit coefficients (O(k) for k-wise families).
//!
//! This crate provides polynomial families over the Mersenne prime
//! `p = 2^61 - 1` and the sign hashes built on them:
//!
//! * [`pairwise::PairwiseHash`] — the classic `((a*x + b) mod p) mod b`
//!   family, exactly the amount of independence the paper's lemmas
//!   consume; the sketch's bucket hashes,
//! * [`kwise::PolynomialHash`] — degree-(k-1) polynomials over the same
//!   field for k-wise independence (used where stronger concentration is
//!   wanted, e.g. 4-wise sign hashes),
//! * [`sign`] — ±1 sign hashes over either: [`sign::PairwiseSign`] (the
//!   sketch's) and [`sign::FourWiseSign`].
//!
//! All functions are deterministic given their seed, so two sketches
//! constructed from the same [`seed::SeedSequence`] share hash functions and
//! are therefore additive — the property §4.2 of the paper exploits for the
//! max-change algorithm.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod crc32;
pub mod fastdiv;
pub mod independence;
pub mod kwise;
pub mod mix;
pub mod pairwise;
pub mod prime;
pub mod seed;
pub mod sign;
pub mod traits;

pub use crc32::{crc32, Crc32};
pub use fastdiv::FastDivisor;
pub use kwise::PolynomialHash;
pub use mix::{shard_of, ItemKey};
pub use pairwise::PairwiseHash;
pub use seed::SeedSequence;
pub use sign::{FourWiseSign, PairwiseSign, Sign};
pub use traits::{BucketHasher, SignHasher};
