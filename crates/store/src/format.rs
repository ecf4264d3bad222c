//! The `EMBS` snapshot format: a versioned, checksummed binary image of
//! a whole [`ModelRegistry`](ember_serve::ModelRegistry), including each
//! model's retained version chain.
//!
//! The framing follows the `ember_http::wire` discipline: a
//! magic/version/flags header, little-endian words throughout, explicit
//! length fields validated in `u64` arithmetic *before* any allocation
//! is sized from them, and a typed [`StoreError`] for every way a frame
//! can be wrong. Integrity is layered:
//!
//! * a trailing **file checksum** (FNV-1a over every preceding byte)
//!   catches torn writes, truncation and bit rot wholesale, before any
//!   section is parsed;
//! * a per-version **parameter checksum**
//!   ([`ember_core::couplings_checksum`], the same digest the serving
//!   layer uses to verify substrate programming) is recomputed from the
//!   *decoded* parameters, so even a bug in this codec cannot silently
//!   hand back wrong weights.
//!
//! Version chains are **delta-compressed**: the first entry of each
//! chain is a full dump of the flattened parameters
//! (weights row-major, then visible bias, then hidden bias, one `f64`
//! bit pattern per cell); each later entry XORs against its predecessor
//! and stores only changed cells (runs of unchanged cells collapse to a
//! varint; each changed cell stores only the significant low bytes of
//! the XOR). Identical republishes — the shape every rollback produces —
//! cost a few bytes; sparse training updates cost bytes proportional to
//! the touched cells. The encoder falls back to a full frame whenever
//! the delta would not be smaller, so the format never loses to the
//! naive encoding.
//!
//! ## Layout (all little-endian)
//!
//! ```text
//! header (32 B): magic "EMBS" | version u16 | flags u16 | sequence u64
//!                | total_len u64 | model_count u32 | reserved u32
//! per model:     name_len u16 | name | visible u32 | hidden u32
//!                | chain_len u32
//! per version:   version u64 | tag u8 (0 full, 1 delta)
//!                | payload_len u32 | params_checksum u64 | payload
//! trailer (8 B): FNV-1a over bytes[0 .. total_len - 8]
//! ```

use std::sync::Arc;

use ember_core::couplings_checksum;
use ember_rbm::Rbm;
use ndarray::{Array1, Array2};

use crate::StoreError;

/// Magic number opening every snapshot file: `"EMBS"` as an LE `u32`.
pub const STORE_MAGIC: u32 = u32::from_le_bytes(*b"EMBS");

/// Format version this build writes and the newest it can read.
pub const STORE_VERSION: u16 = 1;

/// Hard cap on models per snapshot.
pub const MAX_MODELS: u32 = 4096;

/// Hard cap on a model name's UTF-8 length.
pub const MAX_NAME: u16 = 1024;

/// Hard cap on retained versions per model chain.
pub const MAX_CHAIN: u32 = 4096;

/// Hard cap on each layer dimension.
pub const MAX_DIM: u32 = 1 << 20;

/// Bytes of the fixed file header.
const HEADER_LEN: usize = 32;

/// Bytes of the trailing file checksum.
const TRAILER_LEN: usize = 8;

/// A decoded (or to-be-encoded) snapshot: the registry's full state at
/// one sequence number.
#[derive(Debug, Clone)]
pub struct RegistryImage {
    /// Monotonic snapshot sequence (assigned by the store; newest wins).
    pub sequence: u64,
    /// One chain per model, sorted by name at encode time.
    pub models: Vec<ModelChainImage>,
}

/// One model's retained version chain (ascending versions, the last
/// entry being the currently-served one).
#[derive(Debug, Clone)]
pub struct ModelChainImage {
    /// Registry name of the model.
    pub name: String,
    /// `(version, parameters)`, ascending, never empty.
    pub chain: Vec<(u64, Arc<Rbm>)>,
}

/// FNV-1a over raw bytes — same constants as
/// [`ember_core::couplings_checksum`], applied to the encoded frame.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// The flattened parameter vector: weights row-major, then visible
/// bias, then hidden bias, one `f64` bit pattern per cell. This is the
/// domain the delta codec operates on.
fn flatten(rbm: &Rbm) -> Vec<u64> {
    let mut bits = Vec::with_capacity(
        rbm.visible_len() * rbm.hidden_len() + rbm.visible_len() + rbm.hidden_len(),
    );
    bits.extend(rbm.weights().iter().map(|x| x.to_bits()));
    bits.extend(rbm.visible_bias().iter().map(|x| x.to_bits()));
    bits.extend(rbm.hidden_bias().iter().map(|x| x.to_bits()));
    bits
}

/// Rebuilds an [`Rbm`] from a flattened bit vector. `bits.len()` must
/// equal `m*n + m + n` (the caller validated this).
fn unflatten(bits: &[u64], m: usize, n: usize) -> Result<Rbm, StoreError> {
    debug_assert_eq!(bits.len(), m * n + m + n);
    let weights: Vec<f64> = bits[..m * n].iter().map(|&b| f64::from_bits(b)).collect();
    let vbias: Vec<f64> = bits[m * n..m * n + m]
        .iter()
        .map(|&b| f64::from_bits(b))
        .collect();
    let hbias: Vec<f64> = bits[m * n + m..]
        .iter()
        .map(|&b| f64::from_bits(b))
        .collect();
    let weights = Array2::from_shape_vec((m, n), weights)
        .map_err(|e| StoreError::Corrupt(format!("weight shape: {e:?}")))?;
    Rbm::from_parts(weights, Array1::from_vec(vbias), Array1::from_vec(hbias))
        .map_err(|e| StoreError::Corrupt(format!("decoded parameters rejected: {e}")))
}

/// Full-frame payload: every cell's bit pattern, 8 LE bytes each.
fn encode_full(bits: &[u64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(bits.len() * 8);
    for &b in bits {
        out.extend_from_slice(&b.to_le_bytes());
    }
    out
}

fn decode_full(payload: &[u8], cells: usize) -> Result<Vec<u64>, StoreError> {
    debug_assert_eq!(payload.len(), cells * 8);
    Ok(payload
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().expect("chunks_exact(8)")))
        .collect())
}

/// LEB128 unsigned varint.
fn write_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Delta-frame payload: the XOR of `cur` against `prev`, cell by cell.
/// Opcode `0x00` + varint collapses a run of unchanged cells; opcodes
/// `0x01..=0x08` emit one changed cell as that many significant low LE
/// bytes of the XOR (the top emitted byte is always non-zero, making
/// the encoding canonical).
fn delta_encode(prev: &[u64], cur: &[u64]) -> Vec<u8> {
    debug_assert_eq!(prev.len(), cur.len());
    let mut out = Vec::new();
    let mut run: u64 = 0;
    for (&p, &c) in prev.iter().zip(cur) {
        let x = p ^ c;
        if x == 0 {
            run += 1;
            continue;
        }
        if run > 0 {
            out.push(0x00);
            write_varint(&mut out, run);
            run = 0;
        }
        let width = (64 - x.leading_zeros() as usize).div_ceil(8);
        out.push(width as u8);
        out.extend_from_slice(&x.to_le_bytes()[..width]);
    }
    if run > 0 {
        out.push(0x00);
        write_varint(&mut out, run);
    }
    out
}

/// Applies a delta payload to `prev`, yielding the successor's cells.
fn delta_decode(prev: &[u64], payload: &[u8]) -> Result<Vec<u64>, StoreError> {
    let mut cur = prev.to_vec();
    let mut cell = 0usize;
    let mut pos = 0usize;
    while pos < payload.len() {
        let op = payload[pos];
        pos += 1;
        match op {
            0x00 => {
                // Varint run of unchanged cells.
                let mut run: u64 = 0;
                let mut shift = 0u32;
                loop {
                    let Some(&byte) = payload.get(pos) else {
                        return Err(StoreError::Corrupt("delta varint truncated".into()));
                    };
                    pos += 1;
                    if shift >= 64 || (shift == 63 && byte > 1) {
                        return Err(StoreError::Corrupt("delta varint overflow".into()));
                    }
                    run |= ((byte & 0x7f) as u64) << shift;
                    if byte & 0x80 == 0 {
                        break;
                    }
                    shift += 7;
                }
                if run == 0 {
                    return Err(StoreError::Corrupt("zero-length delta run".into()));
                }
                let run = usize::try_from(run)
                    .map_err(|_| StoreError::Corrupt("delta run exceeds usize".into()))?;
                if cur.len() - cell < run {
                    return Err(StoreError::Corrupt(
                        "delta run overruns the cell count".into(),
                    ));
                }
                cell += run;
            }
            1..=8 => {
                let width = op as usize;
                let Some(bytes) = payload.get(pos..pos + width) else {
                    return Err(StoreError::Corrupt("delta cell truncated".into()));
                };
                pos += width;
                if bytes[width - 1] == 0 {
                    return Err(StoreError::Corrupt("non-canonical delta cell width".into()));
                }
                if cell >= cur.len() {
                    return Err(StoreError::Corrupt(
                        "delta cell overruns the cell count".into(),
                    ));
                }
                let mut le = [0u8; 8];
                le[..width].copy_from_slice(bytes);
                cur[cell] ^= u64::from_le_bytes(le);
                cell += 1;
            }
            other => {
                return Err(StoreError::Corrupt(format!(
                    "unknown delta opcode {other:#04x}"
                )));
            }
        }
    }
    if cell != cur.len() {
        return Err(StoreError::Corrupt(format!(
            "delta covers {cell} of {} cells",
            cur.len()
        )));
    }
    Ok(cur)
}

fn push_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}
fn push_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}
fn push_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Encodes a registry image with delta-compressed chains.
///
/// # Errors
///
/// [`StoreError::Oversized`] when a count or dimension exceeds the
/// format caps; [`StoreError::Corrupt`] for structurally invalid input
/// (empty chain, non-ascending versions, size drift within a chain).
pub fn encode_registry(image: &RegistryImage) -> Result<Vec<u8>, StoreError> {
    encode_registry_opts(image, true)
}

/// Encodes with every entry as a full frame — the baseline the delta
/// codec is measured against (the unit tests pin the bytes ratio).
///
/// # Errors
///
/// As [`encode_registry`].
pub fn encode_registry_uncompressed(image: &RegistryImage) -> Result<Vec<u8>, StoreError> {
    encode_registry_opts(image, false)
}

fn encode_registry_opts(image: &RegistryImage, delta: bool) -> Result<Vec<u8>, StoreError> {
    if image.models.len() > MAX_MODELS as usize {
        return Err(StoreError::Oversized(format!(
            "{} models exceeds the cap of {MAX_MODELS}",
            image.models.len()
        )));
    }
    let mut out = Vec::new();
    push_u32(&mut out, STORE_MAGIC);
    push_u16(&mut out, STORE_VERSION);
    push_u16(&mut out, 0); // flags
    push_u64(&mut out, image.sequence);
    push_u64(&mut out, 0); // total_len, patched below
    push_u32(&mut out, image.models.len() as u32);
    push_u32(&mut out, 0); // reserved

    for model in &image.models {
        let name = model.name.as_bytes();
        if name.len() > MAX_NAME as usize {
            return Err(StoreError::Oversized(format!(
                "model name of {} bytes exceeds the cap of {MAX_NAME}",
                name.len()
            )));
        }
        let Some((_, first)) = model.chain.first() else {
            return Err(StoreError::Corrupt(format!(
                "model `{}` has an empty chain",
                model.name
            )));
        };
        if model.chain.len() > MAX_CHAIN as usize {
            return Err(StoreError::Oversized(format!(
                "chain of {} versions exceeds the cap of {MAX_CHAIN}",
                model.chain.len()
            )));
        }
        let (m, n) = (first.visible_len(), first.hidden_len());
        if m > MAX_DIM as usize || n > MAX_DIM as usize {
            return Err(StoreError::Oversized(format!(
                "model `{}` is {m}x{n}, cap is {MAX_DIM} per side",
                model.name
            )));
        }
        push_u16(&mut out, name.len() as u16);
        out.extend_from_slice(name);
        push_u32(&mut out, m as u32);
        push_u32(&mut out, n as u32);
        push_u32(&mut out, model.chain.len() as u32);

        let mut prev_version = None;
        let mut prev_bits: Option<Vec<u64>> = None;
        for (version, rbm) in &model.chain {
            if prev_version.is_some_and(|p| *version <= p) {
                return Err(StoreError::Corrupt(format!(
                    "model `{}` chain versions are not ascending",
                    model.name
                )));
            }
            prev_version = Some(*version);
            if rbm.visible_len() != m || rbm.hidden_len() != n {
                return Err(StoreError::Corrupt(format!(
                    "model `{}` changes size within its chain",
                    model.name
                )));
            }
            let bits = flatten(rbm);
            let full = encode_full(&bits);
            let (tag, payload) = match (delta, &prev_bits) {
                (true, Some(prev)) => {
                    let d = delta_encode(prev, &bits);
                    if d.len() < full.len() {
                        (1u8, d)
                    } else {
                        (0u8, full)
                    }
                }
                _ => (0u8, full),
            };
            if payload.len() > u32::MAX as usize {
                return Err(StoreError::Oversized(format!(
                    "model `{}` v{version} payload exceeds u32 bytes",
                    model.name
                )));
            }
            let checksum = couplings_checksum(
                &rbm.weights().view(),
                &rbm.visible_bias().view(),
                &rbm.hidden_bias().view(),
            );
            push_u64(&mut out, *version);
            out.push(tag);
            push_u32(&mut out, payload.len() as u32);
            push_u64(&mut out, checksum);
            out.extend_from_slice(&payload);
            prev_bits = Some(bits);
        }
    }

    // Patch total_len (body + trailing checksum), then seal.
    let total_len = (out.len() + TRAILER_LEN) as u64;
    out[16..24].copy_from_slice(&total_len.to_le_bytes());
    let checksum = fnv1a(&out);
    push_u64(&mut out, checksum);
    Ok(out)
}

/// A bounds-checked little-endian cursor over the frame body.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], StoreError> {
        if self.buf.len() - self.pos < n {
            return Err(StoreError::Truncated {
                expected: (self.pos as u64).saturating_add(n as u64),
                found: self.buf.len() as u64,
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
    fn u8(&mut self) -> Result<u8, StoreError> {
        Ok(self.take(1)?[0])
    }
    fn u16(&mut self) -> Result<u16, StoreError> {
        Ok(u16::from_le_bytes(
            self.take(2)?.try_into().expect("2 bytes"),
        ))
    }
    fn u32(&mut self) -> Result<u32, StoreError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }
    fn u64(&mut self) -> Result<u64, StoreError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }
}

/// Decodes a snapshot file, validating framing, both checksum layers,
/// and every structural invariant. Never panics on hostile input; every
/// failure is a typed [`StoreError`]. Allocations are sized only from
/// lengths already proven to fit inside `bytes`.
///
/// # Errors
///
/// Every [`StoreError`] decode variant, as documented on the type.
pub fn decode_registry(bytes: &[u8]) -> Result<RegistryImage, StoreError> {
    if bytes.len() < HEADER_LEN + TRAILER_LEN {
        return Err(StoreError::Truncated {
            expected: (HEADER_LEN + TRAILER_LEN) as u64,
            found: bytes.len() as u64,
        });
    }
    let magic = u32::from_le_bytes(bytes[0..4].try_into().expect("4 bytes"));
    if magic != STORE_MAGIC {
        return Err(StoreError::BadMagic {
            found: bytes[0..4].try_into().expect("4 bytes"),
        });
    }
    let version = u16::from_le_bytes(bytes[4..6].try_into().expect("2 bytes"));
    if version == 0 || version > STORE_VERSION {
        return Err(StoreError::UnsupportedVersion { found: version });
    }
    let flags = u16::from_le_bytes(bytes[6..8].try_into().expect("2 bytes"));
    if flags != 0 {
        return Err(StoreError::Corrupt(format!("unknown flags {flags:#06x}")));
    }
    let sequence = u64::from_le_bytes(bytes[8..16].try_into().expect("8 bytes"));
    let total_len = u64::from_le_bytes(bytes[16..24].try_into().expect("8 bytes"));
    if total_len < (HEADER_LEN + TRAILER_LEN) as u64 {
        return Err(StoreError::Corrupt(format!(
            "declared total length {total_len} is smaller than the fixed framing"
        )));
    }
    if (bytes.len() as u64) < total_len {
        return Err(StoreError::Truncated {
            expected: total_len,
            found: bytes.len() as u64,
        });
    }
    if (bytes.len() as u64) > total_len {
        return Err(StoreError::TrailingBytes {
            expected: total_len,
            found: bytes.len() as u64,
        });
    }
    // Whole-file integrity before any section parsing: a checksummed
    // frame cannot smuggle hostile section lengths past this point.
    let body = &bytes[..bytes.len() - TRAILER_LEN];
    let stored = u64::from_le_bytes(
        bytes[bytes.len() - TRAILER_LEN..]
            .try_into()
            .expect("8 bytes"),
    );
    let computed = fnv1a(body);
    if stored != computed {
        return Err(StoreError::ChecksumMismatch {
            what: "file".into(),
            expected: stored,
            found: computed,
        });
    }
    let model_count = u32::from_le_bytes(bytes[24..28].try_into().expect("4 bytes"));
    if model_count > MAX_MODELS {
        return Err(StoreError::Oversized(format!(
            "{model_count} models exceeds the cap of {MAX_MODELS}"
        )));
    }
    let reserved = u32::from_le_bytes(bytes[28..32].try_into().expect("4 bytes"));
    if reserved != 0 {
        return Err(StoreError::Corrupt(format!(
            "non-zero reserved header word {reserved:#010x}"
        )));
    }

    let mut r = Reader {
        buf: body,
        pos: HEADER_LEN,
    };
    let mut models = Vec::new();
    for _ in 0..model_count {
        let name_len = r.u16()?;
        if name_len > MAX_NAME {
            return Err(StoreError::Oversized(format!(
                "model name of {name_len} bytes exceeds the cap of {MAX_NAME}"
            )));
        }
        let name = std::str::from_utf8(r.take(name_len as usize)?)
            .map_err(|_| StoreError::Corrupt("model name is not UTF-8".into()))?
            .to_string();
        let m = r.u32()?;
        let n = r.u32()?;
        if m > MAX_DIM || n > MAX_DIM {
            return Err(StoreError::Oversized(format!(
                "model `{name}` is {m}x{n}, cap is {MAX_DIM} per side"
            )));
        }
        if m == 0 || n == 0 {
            return Err(StoreError::Corrupt(format!(
                "model `{name}` has empty dimensions"
            )));
        }
        let chain_len = r.u32()?;
        if chain_len == 0 {
            return Err(StoreError::Corrupt(format!(
                "model `{name}` has an empty chain"
            )));
        }
        if chain_len > MAX_CHAIN {
            return Err(StoreError::Oversized(format!(
                "chain of {chain_len} versions exceeds the cap of {MAX_CHAIN}"
            )));
        }
        let cells = (m as u64) * (n as u64) + (m as u64) + (n as u64);
        let full_len = cells
            .checked_mul(8)
            .ok_or_else(|| StoreError::Oversized(format!("model `{name}` cell count overflows")))?;

        let mut chain: Vec<(u64, Arc<Rbm>)> = Vec::new();
        let mut prev_version: Option<u64> = None;
        let mut prev_bits: Option<Vec<u64>> = None;
        for _ in 0..chain_len {
            let version = r.u64()?;
            if prev_version.is_some_and(|p| version <= p) {
                return Err(StoreError::Corrupt(format!(
                    "model `{name}` chain versions are not ascending"
                )));
            }
            prev_version = Some(version);
            let tag = r.u8()?;
            let payload_len = r.u32()? as usize;
            let stored_checksum = r.u64()?;
            // The payload is proven to exist in the buffer before any
            // cell vector is allocated from its size.
            let payload = r.take(payload_len)?;
            let bits = match tag {
                0 => {
                    if payload_len as u64 != full_len {
                        return Err(StoreError::Corrupt(format!(
                            "model `{name}` v{version} full frame is {payload_len} bytes, \
                             dimensions require {full_len}"
                        )));
                    }
                    decode_full(payload, cells as usize)?
                }
                1 => {
                    let Some(prev) = &prev_bits else {
                        return Err(StoreError::Corrupt(format!(
                            "model `{name}` chain opens with a delta frame"
                        )));
                    };
                    delta_decode(prev, payload)?
                }
                other => {
                    return Err(StoreError::Corrupt(format!(
                        "unknown frame tag {other:#04x} in model `{name}`"
                    )));
                }
            };
            let rbm = unflatten(&bits, m as usize, n as usize)?;
            let computed = couplings_checksum(
                &rbm.weights().view(),
                &rbm.visible_bias().view(),
                &rbm.hidden_bias().view(),
            );
            if computed != stored_checksum {
                return Err(StoreError::ChecksumMismatch {
                    what: format!("model `{name}` v{version}"),
                    expected: stored_checksum,
                    found: computed,
                });
            }
            prev_bits = Some(bits);
            chain.push((version, Arc::new(rbm)));
        }
        models.push(ModelChainImage { name, chain });
    }
    if r.pos != body.len() {
        return Err(StoreError::Corrupt(format!(
            "sections end at byte {} but the frame body spans {}",
            r.pos,
            body.len()
        )));
    }
    Ok(RegistryImage { sequence, models })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rbm(m: usize, n: usize, seed: u64) -> Arc<Rbm> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        Arc::new(Rbm::random(m, n, 0.1, &mut rng))
    }

    fn image(models: Vec<ModelChainImage>) -> RegistryImage {
        RegistryImage {
            sequence: 7,
            models,
        }
    }

    #[test]
    fn round_trips_a_multi_model_multi_version_image() {
        let img = image(vec![
            ModelChainImage {
                name: "alpha".into(),
                chain: vec![(1, rbm(5, 3, 1)), (3, rbm(5, 3, 2)), (9, rbm(5, 3, 3))],
            },
            ModelChainImage {
                name: "beta".into(),
                chain: vec![(42, rbm(2, 7, 4))],
            },
        ]);
        let bytes = encode_registry(&img).unwrap();
        let back = decode_registry(&bytes).unwrap();
        assert_eq!(back.sequence, 7);
        assert_eq!(back.models.len(), 2);
        for (a, b) in img.models.iter().zip(&back.models) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.chain.len(), b.chain.len());
            for ((va, ra), (vb, rb)) in a.chain.iter().zip(&b.chain) {
                assert_eq!(va, vb);
                assert_eq!(**ra, **rb, "parameters must round-trip bit-identically");
            }
        }
    }

    #[test]
    fn identical_republish_deltas_are_tiny() {
        let base = rbm(50, 40, 1);
        let img = image(vec![ModelChainImage {
            name: "m".into(),
            chain: vec![(1, Arc::clone(&base)), (2, Arc::clone(&base)), (3, base)],
        }]);
        let delta = encode_registry(&img).unwrap();
        let full = encode_registry_uncompressed(&img).unwrap();
        // Two of the three versions collapse to a run op each.
        assert!(
            delta.len() < full.len() / 2,
            "delta {} vs full {}",
            delta.len(),
            full.len()
        );
        let back = decode_registry(&delta).unwrap();
        assert_eq!(*back.models[0].chain[2].1, *back.models[0].chain[0].1);
    }

    #[test]
    fn sparse_updates_compress_and_dense_updates_fall_back() {
        // Sparse: one changed weight out of 50x40.
        let v1 = rbm(50, 40, 1);
        let mut v2 = (*v1).clone();
        v2.weights_mut()[[10, 10]] += 0.25;
        let sparse = image(vec![ModelChainImage {
            name: "m".into(),
            chain: vec![(1, Arc::clone(&v1)), (2, Arc::new(v2))],
        }]);
        let delta = encode_registry(&sparse).unwrap();
        let full = encode_registry_uncompressed(&sparse).unwrap();
        assert!(delta.len() < full.len() * 6 / 10);
        assert_eq!(decode_registry(&delta).unwrap().models[0].chain.len(), 2);

        // Dense: an unrelated re-randomization. Even here the delta
        // often edges out full frames (nearby magnitudes share exponent
        // bytes), but it must never LOSE to them.
        let dense = image(vec![ModelChainImage {
            name: "m".into(),
            chain: vec![(1, rbm(20, 20, 1)), (2, rbm(20, 20, 2))],
        }]);
        let d = encode_registry(&dense).unwrap();
        let f = encode_registry_uncompressed(&dense).unwrap();
        assert!(d.len() <= f.len());

        // Adversarial: a global sign flip changes exactly the top bit
        // of every cell — each delta cell would cost 9 bytes against 8
        // full, so the encoder must fall back to a full frame.
        let v1 = rbm(20, 20, 1);
        let mut v2 = (*v1).clone();
        v2.weights_mut().mapv_inplace(|x| -x);
        v2.visible_bias_mut().mapv_inplace(|x| -x);
        v2.hidden_bias_mut().mapv_inplace(|x| -x);
        let flipped = image(vec![ModelChainImage {
            name: "m".into(),
            chain: vec![(1, v1), (2, Arc::new(v2))],
        }]);
        let d = encode_registry(&flipped).unwrap();
        let f = encode_registry_uncompressed(&flipped).unwrap();
        assert_eq!(d.len(), f.len(), "sign-flip delta must fall back to full");
        assert_eq!(decode_registry(&d).unwrap().models[0].chain.len(), 2);
    }

    #[test]
    fn training_shaped_chains_are_2_5x_smaller_than_full_frames() {
        use rand::Rng;
        // 4 models × 4-version chains at 784×200, each publish nudging
        // ~10% of the weights by U(−5e-4, 5e-4): the shape a training
        // loop's publishes have, and the case delta frames exist for.
        let mut rng = rand::rngs::StdRng::seed_from_u64(2023);
        let models = (0..4)
            .map(|i| {
                let mut rbm = Rbm::random(784, 200, 0.1, &mut rng);
                let mut chain = vec![(1, Arc::new(rbm.clone()))];
                for version in 2..=4 {
                    for w in rbm.weights_mut().iter_mut() {
                        if rng.random_bool(0.10) {
                            *w += (rng.random::<f64>() - 0.5) * 1e-3;
                        }
                    }
                    chain.push((version, Arc::new(rbm.clone())));
                }
                ModelChainImage {
                    name: format!("model-{i}"),
                    chain,
                }
            })
            .collect();
        let img = image(models);
        let full = encode_registry_uncompressed(&img).unwrap().len();
        let delta = encode_registry(&img).unwrap().len();
        let ratio = full as f64 / delta as f64;
        assert!(ratio >= 2.5, "full {full} B / delta {delta} B = {ratio:.3}");
    }

    #[test]
    fn header_level_rejections_are_typed() {
        let img = image(vec![ModelChainImage {
            name: "m".into(),
            chain: vec![(1, rbm(3, 2, 1))],
        }]);
        let good = encode_registry(&img).unwrap();

        // Bad magic.
        let mut bad = good.clone();
        bad[0..4].copy_from_slice(b"NOPE");
        assert!(matches!(
            decode_registry(&bad),
            Err(StoreError::BadMagic {
                found: [b'N', b'O', b'P', b'E']
            })
        ));

        // Future version (header checksum is not consulted first —
        // an old reader must refuse before trusting anything else).
        let mut bad = good.clone();
        bad[4..6].copy_from_slice(&(STORE_VERSION + 1).to_le_bytes());
        assert!(matches!(
            decode_registry(&bad),
            Err(StoreError::UnsupportedVersion { found }) if found == STORE_VERSION + 1
        ));

        // Truncation at every boundary class.
        assert!(matches!(
            decode_registry(&good[..10]),
            Err(StoreError::Truncated { .. })
        ));
        assert!(matches!(
            decode_registry(&good[..good.len() - 1]),
            Err(StoreError::Truncated { .. })
        ));

        // Trailing garbage.
        let mut bad = good.clone();
        bad.push(0xAB);
        assert!(matches!(
            decode_registry(&bad),
            Err(StoreError::TrailingBytes { .. })
        ));

        // A flipped body bit fails the file checksum.
        let mut bad = good.clone();
        let mid = bad.len() / 2;
        bad[mid] ^= 0x10;
        assert!(matches!(
            decode_registry(&bad),
            Err(StoreError::ChecksumMismatch { ref what, .. }) if what == "file"
        ));
    }

    #[test]
    fn encoder_validates_structure() {
        // Empty chain.
        let img = image(vec![ModelChainImage {
            name: "m".into(),
            chain: vec![],
        }]);
        assert!(matches!(encode_registry(&img), Err(StoreError::Corrupt(_))));
        // Non-ascending versions.
        let img = image(vec![ModelChainImage {
            name: "m".into(),
            chain: vec![(5, rbm(3, 2, 1)), (2, rbm(3, 2, 2))],
        }]);
        assert!(matches!(encode_registry(&img), Err(StoreError::Corrupt(_))));
        // Size drift within a chain.
        let img = image(vec![ModelChainImage {
            name: "m".into(),
            chain: vec![(1, rbm(3, 2, 1)), (2, rbm(4, 2, 2))],
        }]);
        assert!(matches!(encode_registry(&img), Err(StoreError::Corrupt(_))));
        // Oversized name.
        let img = image(vec![ModelChainImage {
            name: "x".repeat(MAX_NAME as usize + 1),
            chain: vec![(1, rbm(3, 2, 1))],
        }]);
        assert!(matches!(
            encode_registry(&img),
            Err(StoreError::Oversized(_))
        ));
    }

    #[test]
    fn delta_codec_round_trips_and_rejects_malformed_payloads() {
        let prev: Vec<u64> = (0..100).map(|i| (i as f64 * 0.37).to_bits()).collect();
        let mut cur = prev.clone();
        cur[0] ^= 0xff; // low-byte change
        cur[50] = (1e300f64).to_bits(); // wide change
        cur[99] ^= 0xff00_0000_0000_0000; // top-byte change
        let payload = delta_encode(&prev, &cur);
        assert_eq!(delta_decode(&prev, &payload).unwrap(), cur);

        // Unknown opcode.
        assert!(delta_decode(&prev, &[0x09]).is_err());
        // Zero-length run.
        assert!(delta_decode(&prev, &[0x00, 0x00]).is_err());
        // Run overrunning the cell count.
        let mut p = vec![0x00];
        write_varint(&mut p, 101);
        assert!(delta_decode(&prev, &p).is_err());
        // Truncated cell bytes.
        assert!(delta_decode(&prev, &[0x04, 0x01]).is_err());
        // Non-canonical width (top emitted byte zero).
        assert!(delta_decode(&prev, &[0x02, 0x05, 0x00]).is_err());
        // Under-coverage: payload ends before all cells are accounted.
        let mut p = vec![0x00];
        write_varint(&mut p, 99);
        assert!(delta_decode(&prev, &p).is_err());
    }
}
