//! LEB128 varints and zigzag transforms for the column codecs.
//!
//! Every multi-byte integer in a chunk payload is a little-endian base-128
//! varint; signed deltas go through zigzag first so small negative steps
//! stay short. Decoding is bounds-checked and rejects varints longer than
//! ten bytes — a corrupted continuation-bit run must surface as
//! [`StoreError::Truncated`] or [`StoreError::CorruptVarint`], never as
//! an out-of-bounds read or a silent wrap.

use crate::StoreError;

/// Append `v` as a base-128 varint.
#[inline]
pub fn put_u64(buf: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        buf.push((v as u8) | 0x80);
        v >>= 7;
    }
    buf.push(v as u8);
}

/// Decode one varint at `*pos`, advancing it past the encoding.
#[inline]
pub fn get_u64(buf: &[u8], pos: &mut usize) -> Result<u64, StoreError> {
    let mut v: u64 = 0;
    for shift in (0..64).step_by(7) {
        let b = *buf.get(*pos).ok_or(StoreError::Truncated)?;
        *pos += 1;
        if shift == 63 && (b & 0x7E) != 0 {
            return Err(StoreError::CorruptVarint);
        }
        v |= ((b & 0x7F) as u64) << shift;
        if b & 0x80 == 0 {
            return Ok(v);
        }
    }
    Err(StoreError::CorruptVarint)
}

/// Map a signed delta to an unsigned value with small magnitudes first.
#[inline]
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
#[inline]
pub fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_across_magnitudes() {
        let mut buf = Vec::new();
        let values = [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX];
        for &v in &values {
            put_u64(&mut buf, v);
        }
        let mut pos = 0;
        for &v in &values {
            assert_eq!(get_u64(&buf, &mut pos).unwrap(), v);
        }
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn zigzag_round_trips_signed() {
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
        assert_eq!(zigzag(0), 0);
        assert_eq!(zigzag(-1), 1);
        assert_eq!(zigzag(1), 2);
    }

    #[test]
    fn truncated_and_overlong_varints_are_rejected() {
        let mut pos = 0;
        assert!(matches!(
            get_u64(&[0x80, 0x80], &mut pos),
            Err(StoreError::Truncated)
        ));
        // Eleven continuation bytes can never be a valid u64.
        let overlong = [0xFFu8; 11];
        let mut pos = 0;
        assert!(matches!(
            get_u64(&overlong, &mut pos),
            Err(StoreError::CorruptVarint)
        ));
    }
}
