//! Differential property test for `FrameAccumulator`'s borrowed frame walk.
//!
//! The accumulator hands frame bodies out as slices of its own buffer and
//! reclaims consumed bytes only when it is next filled. The reference is the
//! blocking `FrameRead::read_frame` over the whole byte stream at once —
//! code that shares nothing with the accumulator's cursors. Over arbitrary
//! fragmentations (down to one byte), back-to-back frames, empty bodies and
//! a policy violation in the middle of a burst, both must produce the same
//! bodies in the same order, the accumulator must deliver every frame that
//! precedes a violation, and the violation must be sticky.

use std::io::{BufWriter, Cursor, Write};

use prochlo_core::framing::{
    write_frame_vectored, FrameAccumulator, FrameError, FramePolicy, FrameRead, FrameWrite,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

const POLICY: FramePolicy = FramePolicy::new(7, 512);

/// How a reference read or an accumulator walk ended.
#[derive(Debug, PartialEq, Eq)]
enum Ending {
    /// Ran out of bytes at a frame boundary or inside a frame.
    Dry,
    TooLarge(usize),
    Protocol(&'static str),
}

/// The reference: every body `read_frame` returns, then how it stopped.
fn read_all(stream: &[u8]) -> (Vec<Vec<u8>>, Ending) {
    let mut cursor = Cursor::new(stream);
    let mut bodies = Vec::new();
    loop {
        match cursor.read_frame(&POLICY) {
            Ok(body) => bodies.push(body),
            Err(FrameError::Closed | FrameError::Io(_)) => return (bodies, Ending::Dry),
            Err(FrameError::TooLarge { actual, .. }) => return (bodies, Ending::TooLarge(actual)),
            Err(FrameError::Protocol(what)) => return (bodies, Ending::Protocol(what)),
        }
    }
}

/// Walks every frame the accumulator holds right now, copying each body out
/// before the next call can move the buffer.
fn walk(acc: &mut FrameAccumulator, bodies: &mut Vec<Vec<u8>>) -> Ending {
    loop {
        match acc.next_frame() {
            Ok(Some(body)) => bodies.push(body.to_vec()),
            Ok(None) => return Ending::Dry,
            Err(FrameError::TooLarge { actual, .. }) => return Ending::TooLarge(actual),
            Err(FrameError::Protocol(what)) => return Ending::Protocol(what),
            Err(other) => panic!("the accumulator does no I/O: {other}"),
        }
    }
}

/// A burst of frames — sizes from empty to the policy ceiling — with, when
/// `poison` says so, one violation spliced in at a frame boundary, followed
/// by more (unreachable) frames.
fn stream(rng: &mut StdRng, frames: usize, poison: Option<usize>) -> Vec<u8> {
    let mut wire = Vec::new();
    for i in 0..frames {
        if poison == Some(i) {
            match rng.gen_range(0..3u8) {
                // An announcement over the ceiling.
                0 => wire.extend_from_slice(&rng.gen_range(513u32..1 << 20).to_le_bytes()),
                // A frame too short to hold its version byte.
                1 => wire.extend_from_slice(&rng.gen_range(0u32..2).to_le_bytes()),
                // A whole frame under the wrong version byte.
                _ => {
                    let len = rng.gen_range(2u32..64);
                    wire.extend_from_slice(&len.to_le_bytes());
                    wire.push(POLICY.version + 1);
                    wire.extend((1..len).map(|_| rng.gen::<u8>()));
                }
            }
        }
        let len = match rng.gen_range(0..8u8) {
            0 => 0,
            1 => 511,
            _ => rng.gen_range(0..96usize),
        };
        let mut body = vec![0u8; len];
        rng.fill_bytes(&mut body);
        wire.write_frame(&POLICY, &body).expect("within the policy");
    }
    wire
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn prop_borrowed_walk_matches_blocking_reads_over_any_fragmentation(
        seed in any::<u64>(),
        frames in 0usize..24,
        poisoned in any::<bool>(),
        max_fragment in 1usize..700,
        cut_short in any::<bool>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let poison = (poisoned && frames > 0).then(|| rng.gen_range(0..frames));
        let mut wire = stream(&mut rng, frames, poison);
        if cut_short && !wire.is_empty() {
            // A peer that stops mid-frame.
            wire.truncate(rng.gen_range(0..wire.len()));
        }
        let (expected, expected_end) = read_all(&wire);

        let mut acc = FrameAccumulator::new(POLICY);
        let mut bodies = Vec::new();
        let mut end = Ending::Dry;
        let mut rest = &wire[..];
        while !rest.is_empty() {
            let take = rng.gen_range(1..=max_fragment).min(rest.len());
            let (fragment, later) = rest.split_at(take);
            rest = later;
            // Both fill paths: a copied chunk, and a read straight into the
            // buffer with more room than the source has bytes.
            if rng.gen() {
                acc.extend(fragment);
            } else {
                let mut source = fragment;
                let room = fragment.len() + rng.gen_range(0..64usize);
                prop_assert_eq!(acc.read_from(&mut source, room).unwrap(), fragment.len());
            }
            // Sometimes leave the frames for a later walk, so fills land on
            // a buffer with unconsumed frames in front of a partial one.
            if end != Ending::Dry || rng.gen_range(0..4u8) > 0 {
                let before = bodies.len();
                let now = walk(&mut acc, &mut bodies);
                if end != Ending::Dry {
                    // Sticky: nothing is delivered past a violation, and
                    // the stream stays refused whatever arrives.
                    prop_assert_eq!(bodies.len(), before);
                    prop_assert!(matches!(now, Ending::Protocol(_)));
                } else {
                    end = now;
                }
            }
        }
        if end == Ending::Dry {
            end = walk(&mut acc, &mut bodies);
        }
        prop_assert_eq!(&bodies, &expected);
        // The one place the two may part: the accumulator refuses a wrong
        // version byte the moment it arrives, the blocking read only once
        // the frame's body is in — which a peer that stopped mid-frame
        // never sends.
        let refused_early = cut_short
            && poison.is_some()
            && expected_end == Ending::Dry
            && end == Ending::Protocol("unsupported protocol version");
        if !refused_early {
            prop_assert_eq!(&end, &expected_end);
        }
        if end == Ending::Dry {
            // Whatever is left is the incomplete tail, byte for byte.
            let consumed: usize = expected.iter().map(|body| body.len() + 5).sum();
            prop_assert_eq!(acc.buffered(), wire.len() - consumed);
        }
    }
}

/// A sink that takes one byte per `write` call, so every frame is written
/// across as many partial writes as it has bytes.
struct OneByte(Vec<u8>);

impl Write for OneByte {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.extend(buf.first());
        Ok(buf.len().min(1))
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The one frame writer gives the same bytes whatever it writes into:
    /// a `Vec`, a `BufWriter` smaller or larger than the frames, or a sink
    /// that takes a byte at a time — and a body sent in two pieces frames
    /// exactly like the same body joined.
    #[test]
    fn prop_every_sink_gets_the_same_frame_bytes(
        seed in any::<u64>(),
        frames in 1usize..6,
        buffer in 1usize..2048,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let bodies: Vec<Vec<u8>> = (0..frames)
            .map(|_| {
                // A frame carries at least one body byte after its version.
                let mut body = vec![0u8; rng.gen_range(1..=511usize)];
                rng.fill_bytes(&mut body);
                body
            })
            .collect();
        let mut vec = Vec::new();
        let mut buffered = BufWriter::with_capacity(buffer, Vec::new());
        let mut one_byte = OneByte(Vec::new());
        let mut pieces = Vec::new();
        for body in &bodies {
            vec.write_frame(&POLICY, body).unwrap();
            buffered.write_frame(&POLICY, body).unwrap();
            one_byte.write_frame(&POLICY, body).unwrap();
            let (head, tail) = body.split_at(rng.gen_range(0..=body.len()));
            write_frame_vectored(&mut pieces, &POLICY, [head, tail], Err).unwrap();
        }
        let buffered = buffered.into_inner().unwrap();
        prop_assert_eq!(&buffered, &vec);
        prop_assert_eq!(&one_byte.0, &vec);
        prop_assert_eq!(&pieces, &vec);
        // And it reads back as the bodies that went in.
        let (read, end) = read_all(&vec);
        prop_assert_eq!(read, bodies);
        prop_assert_eq!(end, Ending::Dry);
    }
}
