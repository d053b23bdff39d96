//! Core traits implemented by every hash family in this crate.
//!
//! The independence tests ([`crate::independence`]) and the baselines
//! take any implementation; the sketch uses [`crate::PairwiseHash`] and
//! [`crate::PairwiseSign`] through them.

/// A hash function from 64-bit keys to bucket indices `[0, num_buckets)`.
///
/// Implementations must be *pure*: equal keys always map to equal buckets
/// for the lifetime of the value. The Count-Sketch analysis additionally
/// requires the family the function was drawn from to be pairwise
/// independent; every implementation in this crate documents its
/// independence level.
pub trait BucketHasher {
    /// Maps a key to a bucket in `[0, self.num_buckets())`.
    fn bucket(&self, key: u64) -> usize;

    /// Canonicalizes a key for repeated hashing through this family.
    ///
    /// Contract: `bucket(key) == bucket_canon(canon(key))` for every
    /// key, and `canon` is a function of the *family*, not the drawn
    /// instance — every hasher of one concrete type maps a key to the
    /// same canonical form. The sketch's `update` and `estimate` rely on
    /// this to canonicalize each key once and reuse it across all `t`
    /// rows, instead of paying the reduction inside every row's
    /// evaluation.
    /// The default is the identity.
    #[inline]
    fn canon(&self, key: u64) -> u64 {
        key
    }

    /// Maps a key already canonicalized by [`BucketHasher::canon`] to a
    /// bucket. Callers must only pass values produced by `canon`; the
    /// default forwards to [`BucketHasher::bucket`], which is correct
    /// because the identity canon leaves keys untouched.
    #[inline]
    fn bucket_canon(&self, key: u64) -> usize {
        self.bucket(key)
    }

    /// The size of the range this hasher maps into.
    fn num_buckets(&self) -> usize;

    /// Heap + inline memory used by this function's description, in bytes.
    ///
    /// The paper accounts `O(log m)` random bits per function; this method
    /// lets the space experiments charge the real cost.
    fn space_bytes(&self) -> usize;
}

/// A hash function from 64-bit keys to signs `{+1, -1}`.
///
/// Pairwise independence of the sign hash is what makes each row estimate
/// `C[i][h_i(q)] * s_i(q)` unbiased (paper §3.1): cross terms
/// `E[s_i(q) s_i(q')]` vanish for `q != q'`.
pub trait SignHasher {
    /// Returns `+1` or `-1` for the key.
    fn sign(&self, key: u64) -> i64;

    /// Canonicalizes a key for repeated sign evaluation; the same
    /// contract as [`BucketHasher::canon`], for this trait's
    /// [`SignHasher::sign_canon`]. The default is the identity.
    #[inline]
    fn canon(&self, key: u64) -> u64 {
        key
    }

    /// Evaluates a key already canonicalized by [`SignHasher::canon`].
    #[inline]
    fn sign_canon(&self, key: u64) -> i64 {
        self.sign(key)
    }

    /// Heap + inline memory used by this function's description, in bytes.
    fn space_bytes(&self) -> usize;
}
