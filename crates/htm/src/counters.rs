//! One declaration per counter struct.
//!
//! Every counter of the workspace is a plain `u64` (or `u32`) field of the
//! struct owned by the layer that counts it, incremented with a plain `+=`
//! on the hot path. [`counters!`](crate::counters!) declares such a struct
//! once and derives from that declaration what every reader needs: `merge`,
//! the field names, and the values in the same order. Printers and JSON
//! emitters walk `NAMES` / `values()`, so a new counter is one line in its
//! owner's declaration. [`AtomicCounters`] is the one atomic mirror, for
//! the two places (the health board, the drain drivers' process-wide sum)
//! where several threads add into one copy.

use std::sync::atomic::{AtomicU64, Ordering};

/// Declare a counter struct and derive its `merge`, `N`, `NAMES`,
/// `values()` and `from_values()`.
///
/// Every field is `pub`. A field merges by sum unless declared `=> max`.
/// Fields inside a leading `nested { .. }` group are counter structs of
/// their own: `merge` calls theirs, and they stay out of `NAMES`.
///
/// ```
/// tufast_htm::counters! {
///     /// Example counters.
///     #[derive(Clone, Debug, Default, PartialEq, Eq)]
///     pub struct Example {
///         /// Summed.
///         pub hits: u64,
///         /// Kept at its maximum.
///         pub peak: u32 => max,
///     }
/// }
/// let mut a = Example { hits: 1, peak: 7 };
/// a.merge(&Example { hits: 2, peak: 3 });
/// assert_eq!(a, Example { hits: 3, peak: 7 });
/// assert_eq!(Example::NAMES, ["hits", "peak"]);
/// assert_eq!(a.values(), [3, 7]);
/// ```
#[macro_export]
macro_rules! counters {
    (@merge ; $a:expr, $b:expr) => {
        $a += $b
    };
    (@merge max; $a:expr, $b:expr) => {
        $a = $a.max($b)
    };
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $(nested {
                $( $(#[$nmeta:meta])* pub $nested:ident : $nty:ty ),* $(,)?
            })?
            $( $(#[$fmeta:meta])* pub $field:ident : $fty:ty $(=> $rule:ident)? ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis struct $name {
            $($( $(#[$nmeta])* pub $nested: $nty, )*)?
            $( $(#[$fmeta])* pub $field: $fty, )*
        }

        impl $name {
            /// Number of scalar counters.
            pub const N: usize = [$(stringify!($field)),*].len();

            /// The scalar counters' field names, in declaration order.
            pub const NAMES: [&'static str; $name::N] = [$(stringify!($field)),*];

            /// Fold another instance into this one: every counter sums,
            /// except those declared `max`, and nested structs merge.
            pub fn merge(&mut self, other: &$name) {
                $($( self.$nested.merge(&other.$nested); )*)?
                $( $crate::counters!(@merge $($rule)?; self.$field, other.$field); )*
            }

            /// The scalar counters, in the order of `NAMES`.
            pub fn values(&self) -> [u64; $name::N] {
                [$(u64::from(self.$field)),*]
            }

            /// The inverse of `values`; nested structs start empty.
            pub fn from_values(values: [u64; $name::N]) -> $name {
                let [$($field),*] = values;
                $name {
                    $($( $nested: Default::default(), )*)?
                    $( $field: $field as $fty, )*
                }
            }
        }
    };
}

/// An atomic copy of one declared counter struct: one word per counter,
/// indexed by declaration order (`AtomicCounters<{ S::N }>` for a struct
/// `S`). Every access is `Relaxed`: the words are tallies read after the
/// fact, never flags that publish other data.
#[derive(Debug)]
pub struct AtomicCounters<const N: usize>([AtomicU64; N]);

impl<const N: usize> AtomicCounters<N> {
    /// All zeros.
    pub const fn new() -> Self {
        AtomicCounters([const { AtomicU64::new(0) }; N])
    }

    /// Add `values` (a struct's `values()`) word by word.
    pub fn add(&self, values: [u64; N]) {
        for (word, v) in self.0.iter().zip(values) {
            if v != 0 {
                word.fetch_add(v, Ordering::Relaxed);
            }
        }
    }

    /// The current sums, for the struct's `from_values`.
    pub fn load(&self) -> [u64; N] {
        std::array::from_fn(|i| self.0[i].load(Ordering::Relaxed))
    }

    /// The current sums, resetting each word to zero.
    pub fn take(&self) -> [u64; N] {
        std::array::from_fn(|i| self.0[i].swap(0, Ordering::Relaxed))
    }
}

impl<const N: usize> Default for AtomicCounters<N> {
    fn default() -> Self {
        Self::new()
    }
}
