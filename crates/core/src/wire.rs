//! Minimal length-prefixed wire encoding used by the report formats.
//!
//! The workspace deliberately avoids pulling in a serialization framework:
//! report formats are small, fixed and security-relevant, so an explicit
//! reader/writer keeps the byte layout obvious and auditable.

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

/// A cursor over a byte slice with checked reads.
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

    /// True when every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, len: usize) -> Result<&'a [u8], PipelineError> {
        if self.remaining() < len {
            return Err(PipelineError::MalformedReport("truncated field"));
        }
        // prochlo-lint: allow(panic-on-wire, "bounds proven: remaining() >= len is checked on the line above")
        let slice = &self.bytes[self.offset..self.offset + len];
        self.offset += len;
        Ok(slice)
    }

    /// Reads a `u8`.
    pub fn get_u8(&mut self) -> Result<u8, PipelineError> {
        // prochlo-lint: allow(panic-on-wire, "bounds proven: take(1) only succeeds with exactly one byte")
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32, PipelineError> {
        let bytes = self.take(4)?;
        // prochlo-lint: allow(panic-on-wire, "bounds proven: take(4) only succeeds with exactly four bytes")
        Ok(u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]))
    }

    /// Reads a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64, PipelineError> {
        let bytes = self.take(8)?;
        let mut buf = [0u8; 8];
        buf.copy_from_slice(bytes);
        Ok(u64::from_le_bytes(buf))
    }

    /// Reads a length-prefixed byte string.
    pub fn get_bytes(&mut self) -> Result<Vec<u8>, PipelineError> {
        Ok(self.get_slice()?.to_vec())
    }

    /// Reads a length-prefixed byte string without copying it: the slice
    /// borrows from the bytes the reader was created over.
    pub fn get_slice(&mut self) -> Result<&'a [u8], PipelineError> {
        let len = self.get_u32()? as usize;
        self.take(len)
    }

    /// Reads exactly `N` raw bytes (a nonce, a hash, a curve point) without
    /// copying them.
    pub fn get_fixed<const N: usize>(&mut self) -> Result<&'a [u8; N], PipelineError> {
        let bytes = self.take(N)?;
        bytes
            .try_into()
            .map_err(|_| PipelineError::MalformedReport("truncated field"))
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
    let mut reader = Reader::new(padded);
    let len = reader.get_u32()? as usize;
    if len > padded.len().saturating_sub(4) {
        return Err(PipelineError::MalformedReport(
            "padding length out of range",
        ));
    }
    // prochlo-lint: allow(panic-on-wire, "bounds proven: len <= padded.len() - 4 is checked above")
    Ok(&padded[4..4 + len])
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
        assert_eq!(r.get_u8().unwrap(), 7);
        assert_eq!(r.get_u32().unwrap(), 0xdead_beef);
        assert_eq!(r.get_u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.get_bytes().unwrap(), b"hello");
        assert!(r.is_empty());
    }

    #[test]
    fn borrowing_reads_return_the_bytes_in_place() {
        let mut out = Vec::new();
        out.extend_from_slice(&[7u8; 16]);
        put_bytes(&mut out, b"report");
        let mut r = Reader::new(&out);
        let fixed: &[u8; 16] = r.get_fixed().unwrap();
        assert_eq!(fixed, &[7u8; 16]);
        let slice = r.get_slice().unwrap();
        assert_eq!(slice, b"report");
        // Borrowed from the input, not copied out of it.
        assert!(std::ptr::eq(slice.as_ptr(), out[20..].as_ptr()));
        assert!(r.is_empty());
        assert!(r.get_fixed::<1>().is_err());
        assert!(Reader::new(&out[..10]).get_fixed::<16>().is_err());
    }

    #[test]
    fn truncated_reads_fail() {
        let mut out = Vec::new();
        put_bytes(&mut out, b"abc");
        let mut r = Reader::new(&out[..out.len() - 1]);
        assert!(r.get_bytes().is_err());
        let mut r2 = Reader::new(&[1, 2]);
        assert!(r2.get_u32().is_err());
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
