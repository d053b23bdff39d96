//! Core traits implemented by every hash family in this crate.
//!
//! The sketch is generic over these traits so the experiments can swap
//! constructions (polynomial vs multiply-shift vs tabulation) without
//! touching the sketch code — the "strategy" pattern.

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

    /// Maps a block of keys to buckets: `out[j] = bucket(keys[j])`.
    ///
    /// Semantically identical to calling [`BucketHasher::bucket`] per key
    /// — implementations may only pipeline, never change the mapping: the
    /// per-key evaluations are independent, and specialized
    /// implementations let them overlap in the CPU pipeline instead of
    /// serializing behind per-item loop control.
    ///
    /// # Panics
    /// Panics if `out.len() < keys.len()`.
    #[inline]
    fn bucket_block(&self, keys: &[u64], out: &mut [usize]) {
        for (o, &k) in out[..keys.len()].iter_mut().zip(keys) {
            *o = self.bucket(k);
        }
    }

    /// Canonicalizes a key for repeated hashing through this family.
    ///
    /// Contract: `bucket(key) == bucket_canon(canon(key))` for every
    /// key, and `canon` is a function of the *family*, not the drawn
    /// instance — every hasher of one concrete type maps a key to the
    /// same canonical form. Batch read kernels rely on this to
    /// canonicalize each key once and reuse it across all `t` rows,
    /// instead of paying the reduction inside every row's evaluation.
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

    /// Evaluates a block of keys: `out[j] = sign(keys[j])`.
    ///
    /// Semantically identical to per-key [`SignHasher::sign`] calls; see
    /// [`BucketHasher::bucket_block`] for what the block form buys.
    ///
    /// # Panics
    /// Panics if `out.len() < keys.len()`.
    #[inline]
    fn sign_block(&self, keys: &[u64], out: &mut [i64]) {
        for (o, &k) in out[..keys.len()].iter_mut().zip(keys) {
            *o = self.sign(k);
        }
    }

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

impl<T: BucketHasher + ?Sized> BucketHasher for Box<T> {
    fn bucket(&self, key: u64) -> usize {
        (**self).bucket(key)
    }
    fn bucket_block(&self, keys: &[u64], out: &mut [usize]) {
        (**self).bucket_block(keys, out)
    }
    fn canon(&self, key: u64) -> u64 {
        (**self).canon(key)
    }
    fn bucket_canon(&self, key: u64) -> usize {
        (**self).bucket_canon(key)
    }
    fn num_buckets(&self) -> usize {
        (**self).num_buckets()
    }
    fn space_bytes(&self) -> usize {
        (**self).space_bytes()
    }
}

impl<T: SignHasher + ?Sized> SignHasher for Box<T> {
    fn sign(&self, key: u64) -> i64 {
        (**self).sign(key)
    }
    fn sign_block(&self, keys: &[u64], out: &mut [i64]) {
        (**self).sign_block(keys, out)
    }
    fn canon(&self, key: u64) -> u64 {
        (**self).canon(key)
    }
    fn sign_canon(&self, key: u64) -> i64 {
        (**self).sign_canon(key)
    }
    fn space_bytes(&self) -> usize {
        (**self).space_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Fixed;
    impl BucketHasher for Fixed {
        fn bucket(&self, key: u64) -> usize {
            (key % 3) as usize
        }
        fn num_buckets(&self) -> usize {
            3
        }
        fn space_bytes(&self) -> usize {
            0
        }
    }
    impl SignHasher for Fixed {
        fn sign(&self, key: u64) -> i64 {
            if key & 1 == 0 {
                1
            } else {
                -1
            }
        }
        fn space_bytes(&self) -> usize {
            0
        }
    }

    #[test]
    fn boxed_bucket_hasher_delegates() {
        let b: Box<dyn BucketHasher> = Box::new(Fixed);
        assert_eq!(b.bucket(7), 1);
        assert_eq!(b.num_buckets(), 3);
        assert_eq!(b.space_bytes(), 0);
    }

    #[test]
    fn boxed_sign_hasher_delegates() {
        let b: Box<dyn SignHasher> = Box::new(Fixed);
        assert_eq!(b.sign(2), 1);
        assert_eq!(b.sign(3), -1);
    }

    #[test]
    fn default_block_methods_match_scalar() {
        let keys = [0u64, 1, 2, 3, 4, 5, 6];
        let mut buckets = [0usize; 7];
        Fixed.bucket_block(&keys, &mut buckets);
        let mut signs = [0i64; 7];
        Fixed.sign_block(&keys, &mut signs);
        for (j, &k) in keys.iter().enumerate() {
            assert_eq!(buckets[j], Fixed.bucket(k));
            assert_eq!(signs[j], Fixed.sign(k));
        }
    }

    #[test]
    fn block_methods_tolerate_oversized_out() {
        let keys = [1u64, 2];
        let mut buckets = [99usize; 5];
        Fixed.bucket_block(&keys, &mut buckets);
        assert_eq!(&buckets[..2], &[Fixed.bucket(1), Fixed.bucket(2)]);
        assert_eq!(buckets[2], 99, "tail untouched");
    }
}
