use std::error::Error;
use std::fmt;

use ndarray::{ArrayView1, ArrayView2};

/// A transient hardware fault raised by a substrate's fallible entry
/// points ([`crate::Substrate::try_program`] /
/// [`crate::Substrate::try_sample_batch_rows`]).
///
/// The paper's operating regime makes these the *expected* failure
/// class, not an exception: analog weights live on leaky gate charges
/// and are re-programmed every minibatch (§3.2), comparator latches are
/// fed by thermal noise, and node voltages drift. A fault is therefore
/// always **retriable** — the recovery discipline is *reprogram, then
/// retry* (the volatile couplings cannot be assumed to have survived
/// whatever upset caused the fault).
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SubstrateFault {
    /// The programming transfer itself failed (host→substrate words
    /// dropped or rejected); the coupling array's contents are
    /// undefined.
    Programming(String),
    /// The programming transfer completed, but the readback checksum
    /// over the realized couplings disagrees with the host's intended
    /// image (stuck-at weight bits, write upsets).
    Readback {
        /// Checksum of the couplings the host meant to program.
        expected: u64,
        /// Checksum the substrate read back.
        actual: u64,
    },
    /// A sample read-out failed outright (no data returned).
    Read(String),
    /// A sampled batch failed the host's sanity screen (non-binary or
    /// non-finite cells where hard `{0, 1}` read-outs are contractual —
    /// comparator latches stuck mid-rail).
    CorruptSamples(String),
}

impl fmt::Display for SubstrateFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubstrateFault::Programming(why) => {
                write!(f, "substrate programming failed: {why}")
            }
            SubstrateFault::Readback { expected, actual } => write!(
                f,
                "programmed couplings failed readback verification \
                 (expected checksum {expected:#018x}, read {actual:#018x})"
            ),
            SubstrateFault::Read(why) => write!(f, "substrate sample read failed: {why}"),
            SubstrateFault::CorruptSamples(why) => {
                write!(f, "sampled batch failed the sanity screen: {why}")
            }
        }
    }
}

impl Error for SubstrateFault {}

/// FNV-1a digest over the bit patterns of a programming image
/// (`weights`, then `visible_bias`, then `hidden_bias`, row-major).
///
/// This is the one readback digest: a backend with readback reports it
/// over the couplings it *realized*
/// ([`crate::Substrate::programmed_checksum`]), and the host compares
/// it against this digest of the *intended* image. A mismatch is a
/// [`SubstrateFault::Readback`].
pub fn couplings_checksum(
    weights: &ArrayView2<'_, f64>,
    visible_bias: &ArrayView1<'_, f64>,
    hidden_bias: &ArrayView1<'_, f64>,
) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |x: f64| {
        for byte in x.to_bits().to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    weights.iter().copied().for_each(&mut eat);
    visible_bias.iter().copied().for_each(&mut eat);
    hidden_bias.iter().copied().for_each(&mut eat);
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        assert!(SubstrateFault::Programming("bus stall".into())
            .to_string()
            .contains("bus stall"));
        let readback = SubstrateFault::Readback {
            expected: 0xAB,
            actual: 0xCD,
        };
        assert!(readback.to_string().contains("0x00000000000000ab"));
        assert!(readback.to_string().contains("0x00000000000000cd"));
        assert!(SubstrateFault::Read("timeout".into())
            .to_string()
            .contains("timeout"));
        assert!(SubstrateFault::CorruptSamples("NaN at (0, 3)".into())
            .to_string()
            .contains("NaN"));
    }
}
