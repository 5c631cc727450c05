//! Minimal length-prefixed wire encoding used by every wire format: the
//! report formats, the collector protocol and the fabric's envelopes and
//! messages.
//!
//! The workspace deliberately avoids pulling in a serialization framework:
//! report formats are small, fixed and security-relevant, so an explicit
//! reader/writer keeps the byte layout obvious and auditable.
//!
//! [`Reader`] is the one decoder contract for bytes a peer sent:
//!
//! - **Label.** Every getter takes the error label of the field it reads
//!   (`"truncated nonce"`) and fails with [`WireError`] carrying it; each
//!   protocol's error type converts a `WireError` into its own "malformed"
//!   variant, so a decoder is a chain of `?`s and maps nothing by hand.
//!   An integer getter also refuses, under the same label, a value that
//!   does not fit the type it is read into.
//! - **Tag.** [`Reader::expect_tag`] reads a message tag and refuses any
//!   other.
//! - **Count.** [`Reader::get_count`] is the one guard against a hostile
//!   element count: it refuses a count the bytes left cannot hold at the
//!   element's smallest encoding, before the decoder reserves room for it.
//! - **Finish.** Every decoder ends in [`Reader::finish`], which refuses
//!   trailing bytes: a message parses only if it is used up exactly.

#![deny(clippy::unwrap_used, clippy::expect_used)]
#![deny(clippy::panic, clippy::indexing_slicing)]

use crate::error::PipelineError;

/// Appends a `u8` tag.
pub fn put_u8(out: &mut Vec<u8>, value: u8) {
    out.push(value);
}

/// Appends a little-endian `u32`.
pub fn put_u32(out: &mut Vec<u8>, value: u32) {
    out.extend_from_slice(&value.to_le_bytes());
}

/// Appends a little-endian `u64`.
pub fn put_u64(out: &mut Vec<u8>, value: u64) {
    out.extend_from_slice(&value.to_le_bytes());
}

/// Appends a length-prefixed byte string (u32 length).
pub fn put_bytes(out: &mut Vec<u8>, value: &[u8]) {
    put_u32(out, value.len() as u32);
    out.extend_from_slice(value);
}

/// A field a [`Reader`] refused, named by the label its decoder gave it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireError(pub &'static str);

/// A cursor over a byte slice with checked reads (see the module docs for
/// the contract).
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    bytes: &'a [u8],
    offset: usize,
}

impl<'a> Reader<'a> {
    /// Creates a reader over `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, offset: 0 }
    }

    /// Remaining unread bytes.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.offset
    }

    fn take(&mut self, len: usize, what: &'static str) -> Result<&'a [u8], WireError> {
        let slice = self
            .bytes
            .get(self.offset..)
            .and_then(|rest| rest.get(..len))
            .ok_or(WireError(what))?;
        self.offset += len;
        Ok(slice)
    }

    /// Reads a `u8`.
    pub fn get_u8(&mut self, what: &'static str) -> Result<u8, WireError> {
        let [byte] = *self.get_fixed(what)?;
        Ok(byte)
    }

    /// Reads a little-endian `u32` into `T`, refusing a value `T` cannot
    /// hold.
    pub fn get_u32<T: TryFrom<u32>>(&mut self, what: &'static str) -> Result<T, WireError> {
        let value = u32::from_le_bytes(*self.get_fixed(what)?);
        T::try_from(value).map_err(|_| WireError(what))
    }

    /// Reads a little-endian `u64` into `T`, refusing a value `T` cannot
    /// hold.
    pub fn get_u64<T: TryFrom<u64>>(&mut self, what: &'static str) -> Result<T, WireError> {
        let value = u64::from_le_bytes(*self.get_fixed(what)?);
        T::try_from(value).map_err(|_| WireError(what))
    }

    /// Reads a length-prefixed byte string into an owned buffer.
    pub fn get_bytes(&mut self, what: &'static str) -> Result<Vec<u8>, WireError> {
        Ok(self.get_slice(what)?.to_vec())
    }

    /// Reads a length-prefixed byte string without copying it: the slice
    /// borrows from the bytes the reader was created over.
    pub fn get_slice(&mut self, what: &'static str) -> Result<&'a [u8], WireError> {
        let len = self.get_u32(what)?;
        self.take(len, what)
    }

    /// Reads exactly `N` raw bytes (a nonce, a hash, a curve point) without
    /// copying them.
    pub fn get_fixed<const N: usize>(
        &mut self,
        what: &'static str,
    ) -> Result<&'a [u8; N], WireError> {
        self.take(N, what)?.try_into().map_err(|_| WireError(what))
    }

    /// Reads a message tag, refusing a missing one or any tag but `tag`.
    pub fn expect_tag(&mut self, tag: u8, what: &'static str) -> Result<(), WireError> {
        match self.get_u8(what)? {
            actual if actual == tag => Ok(()),
            _ => Err(WireError(what)),
        }
    }

    /// Reads a `u32` element count and refuses, as `exceeds`, one the bytes
    /// left cannot hold at `min_len` encoded bytes per element, so a
    /// decoder reserves room for what the message can really carry and
    /// never for what a peer claims. `min_len` must be nonzero.
    pub fn get_count(
        &mut self,
        min_len: usize,
        truncated: &'static str,
        exceeds: &'static str,
    ) -> Result<usize, WireError> {
        let count: usize = self.get_u32(truncated)?;
        if count > self.remaining() / min_len {
            return Err(WireError(exceeds));
        }
        Ok(count)
    }

    /// Ends a decode: refuses, as `what`, any byte left unread.
    pub fn finish(&self, what: &'static str) -> Result<(), WireError> {
        match self.remaining() {
            0 => Ok(()),
            _ => Err(WireError(what)),
        }
    }
}

impl From<WireError> for PipelineError {
    fn from(e: WireError) -> Self {
        PipelineError::MalformedReport(e.0)
    }
}

/// Pads `data` with zeros up to `target` after a 4-byte length prefix, so all
/// payloads of a pipeline have identical length regardless of content.
pub fn pad_payload(data: &[u8], target: usize) -> Result<Vec<u8>, PipelineError> {
    if data.len() > target {
        return Err(PipelineError::PayloadTooLarge {
            actual: data.len(),
            maximum: target,
        });
    }
    let mut out = Vec::with_capacity(4 + target);
    put_u32(&mut out, data.len() as u32);
    out.extend_from_slice(data);
    out.resize(4 + target, 0);
    Ok(out)
}

/// Reverses [`pad_payload`], borrowing the data from `padded`.
pub fn unpad_payload(padded: &[u8]) -> Result<&[u8], PipelineError> {
    let len: usize = Reader::new(padded).get_u32("truncated field")?;
    padded
        .get(4..)
        .and_then(|data| data.get(..len))
        .ok_or(PipelineError::MalformedReport(
            "padding length out of range",
        ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_primitives() {
        let mut out = Vec::new();
        put_u8(&mut out, 7);
        put_u32(&mut out, 0xdead_beef);
        put_u64(&mut out, u64::MAX - 1);
        put_bytes(&mut out, b"hello");
        let mut r = Reader::new(&out);
        assert_eq!(r.get_u8("a").unwrap(), 7);
        assert_eq!(r.get_u32::<u32>("b").unwrap(), 0xdead_beef);
        assert_eq!(r.get_u64::<u64>("c").unwrap(), u64::MAX - 1);
        assert_eq!(r.get_bytes("d").unwrap(), b"hello");
        assert_eq!(r.finish("e"), Ok(()));
    }

    #[test]
    fn borrowing_reads_return_the_bytes_in_place() {
        let mut out = Vec::new();
        out.extend_from_slice(&[7u8; 16]);
        put_bytes(&mut out, b"report");
        let mut r = Reader::new(&out);
        let fixed: &[u8; 16] = r.get_fixed("nonce").unwrap();
        assert_eq!(fixed, &[7u8; 16]);
        let slice = r.get_slice("report").unwrap();
        assert_eq!(slice, b"report");
        // Borrowed from the input, not copied out of it.
        assert!(std::ptr::eq(slice.as_ptr(), out[20..].as_ptr()));
        assert_eq!(r.remaining(), 0);
        assert_eq!(
            r.get_fixed::<1>("past the end"),
            Err(WireError("past the end"))
        );
        assert!(Reader::new(&out[..10]).get_fixed::<16>("short").is_err());
    }

    #[test]
    fn truncated_reads_fail() {
        let mut out = Vec::new();
        put_bytes(&mut out, b"abc");
        let mut r = Reader::new(&out[..out.len() - 1]);
        assert_eq!(r.get_bytes("blob"), Err(WireError("blob")));
        let mut r2 = Reader::new(&[1, 2]);
        assert_eq!(r2.get_u32::<u32>("word"), Err(WireError("word")));
    }

    #[test]
    fn each_failure_carries_its_field_label() {
        let mut out = Vec::new();
        put_u8(&mut out, 7);
        put_u32(&mut out, 70_000);
        put_u64(&mut out, 1 << 40);
        // A value its type cannot hold fails under the field's label.
        let mut r = Reader::new(&out);
        assert_eq!(r.expect_tag(7, "tag"), Ok(()));
        assert_eq!(r.get_u32::<u16>("shard"), Err(WireError("shard")));
        assert_eq!(r.get_u64::<u32>("counter"), Err(WireError("counter")));
        // A missing or different tag fails as the tag.
        assert_eq!(Reader::new(&[]).expect_tag(7, "tag"), Err(WireError("tag")));
        assert_eq!(
            Reader::new(&[8]).expect_tag(7, "tag"),
            Err(WireError("tag"))
        );
        // A byte left over fails the finish.
        let mut r = Reader::new(&out);
        r.get_u8("tag").unwrap();
        assert_eq!(r.finish("trailing"), Err(WireError("trailing")));
        assert_eq!(
            PipelineError::from(WireError("trailing")),
            PipelineError::MalformedReport("trailing")
        );
    }

    #[test]
    fn a_count_the_bytes_left_cannot_hold_is_refused() {
        let mut out = Vec::new();
        put_u32(&mut out, 3);
        out.extend_from_slice(&[0; 12]);
        // Three 4-byte elements fit in 12 bytes; three 5-byte ones do not.
        assert_eq!(Reader::new(&out).get_count(4, "cut", "exceeds"), Ok(3));
        assert_eq!(
            Reader::new(&out).get_count(5, "cut", "exceeds"),
            Err(WireError("exceeds"))
        );
        assert_eq!(
            Reader::new(&out[..3]).get_count(1, "cut", "exceeds"),
            Err(WireError("cut"))
        );
        // A count at u32::MAX with nothing behind it.
        assert_eq!(
            Reader::new(&u32::MAX.to_le_bytes()).get_count(1, "cut", "exceeds"),
            Err(WireError("exceeds"))
        );
    }

    #[test]
    fn padding_roundtrip_and_bounds() {
        let padded = pad_payload(b"word", 16).unwrap();
        assert_eq!(padded.len(), 20);
        assert_eq!(unpad_payload(&padded).unwrap(), b"word");
        // Same length for different data.
        assert_eq!(pad_payload(b"a", 16).unwrap().len(), 20);
        assert_eq!(pad_payload(b"", 16).unwrap().len(), 20);
        // Oversize data is rejected.
        assert!(matches!(
            pad_payload(&[0u8; 17], 16),
            Err(PipelineError::PayloadTooLarge {
                actual: 17,
                maximum: 16
            })
        ));
    }

    #[test]
    fn corrupt_padding_is_rejected() {
        let mut padded = pad_payload(b"word", 8).unwrap();
        padded[0] = 0xff; // declared length far exceeds buffer
        assert!(unpad_payload(&padded).is_err());
    }
}
