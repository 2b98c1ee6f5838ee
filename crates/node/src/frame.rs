//! The inbound half of the wire format, as a pure parser over bytes.

use fuse_core::StackMsg;
use fuse_util::PeerAddr;
use fuse_wire::{Decode, MAX_FRAME};

/// A frame over [`MAX_FRAME`] or a payload that does not decode: the stream
/// carrying it is closed.
#[derive(Debug, PartialEq, Eq)]
pub struct BadFrame;

/// Incremental parser for one inbound stream: a `u32-LE` hello naming the
/// sender, then `u32-LE len ‖ StackMsg` frames. It holds only bytes that
/// arrived, so a length prefix reserves nothing before its payload does.
#[derive(Default)]
pub struct FrameReader {
    buf: Vec<u8>,
    /// Start of the unparsed bytes in `buf`.
    pos: usize,
    /// The sender, once its hello is in.
    pub from: Option<PeerAddr>,
}

impl FrameReader {
    /// Appends bytes read from the stream.
    pub fn push(&mut self, bytes: &[u8]) {
        self.buf.drain(..self.pos);
        self.pos = 0;
        self.buf.extend_from_slice(bytes);
    }

    /// The next complete frame and its sender, `Ok(None)` until more bytes
    /// arrive.
    pub fn next_frame(&mut self) -> Result<Option<(PeerAddr, StackMsg)>, BadFrame> {
        loop {
            let Some((word, rest)) = self.buf[self.pos..].split_first_chunk::<4>() else {
                return Ok(None);
            };
            let word = u32::from_le_bytes(*word);
            let Some(from) = self.from else {
                self.from = Some(word);
                self.pos += 4;
                continue;
            };
            if word > MAX_FRAME {
                return Err(BadFrame);
            }
            let Some(payload) = rest.get(..word as usize) else {
                return Ok(None);
            };
            let msg = StackMsg::from_bytes(payload).map_err(|_| BadFrame)?;
            self.pos += 4 + word as usize;
            return Ok(Some((from, msg)));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use fuse_overlay::{NodeInfo, NodeName, OverlayMsg};
    use fuse_wire::{Encode, EncodeBuf};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn frame(msg: &StackMsg) -> Vec<u8> {
        EncodeBuf::new().encode_frame(msg).to_vec()
    }

    fn routed() -> StackMsg {
        let src = NodeInfo::new(3, NodeName::numbered(3));
        StackMsg::Overlay(OverlayMsg::Routed {
            src,
            target: NodeName::numbered(9),
            ttl: 8,
            class: 0,
            payload: Bytes::from_static(b"payload"),
            path: vec![src],
        })
    }

    /// Feeds `chunks` in order and collects every frame, re-encoded, stopping
    /// at an error.
    fn parse(chunks: &[&[u8]]) -> (FrameReader, Vec<(PeerAddr, Vec<u8>)>, Option<BadFrame>) {
        let mut r = FrameReader::default();
        let mut out = Vec::new();
        for c in chunks {
            r.push(c);
            loop {
                match r.next_frame() {
                    Ok(Some((from, msg))) => out.push((from, msg.to_bytes().to_vec())),
                    Ok(None) => break,
                    Err(e) => return (r, out, Some(e)),
                }
            }
        }
        (r, out, None)
    }

    #[test]
    fn every_split_point_gives_the_same_frames() {
        let (a, b) = (routed(), StackMsg::App(Bytes::from_static(b"xyz")));
        let mut stream = 7u32.to_le_bytes().to_vec();
        stream.extend(frame(&a));
        stream.extend(frame(&b));
        let want = vec![(7, a.to_bytes().to_vec()), (7, b.to_bytes().to_vec())];
        for cut in 0..=stream.len() {
            let (l, r) = stream.split_at(cut);
            let (_, got, err) = parse(&[l, r]);
            assert_eq!((got, err), (want.clone(), None), "split at {cut}");
        }
        let bytes: Vec<&[u8]> = stream.chunks(1).collect();
        let (_, got, err) = parse(&bytes);
        assert_eq!((got, err), (want, None), "one byte at a time");
    }

    #[test]
    fn a_length_over_max_frame_is_an_error_and_reserves_nothing() {
        let mut stream = 7u32.to_le_bytes().to_vec();
        stream.extend((MAX_FRAME + 1).to_le_bytes());
        let (r, got, err) = parse(&[&stream]);
        assert_eq!((got, err), (vec![], Some(BadFrame)));
        assert_eq!(r.from, Some(7), "the hello names the peer to report");
        // A legal but huge length waits for its bytes without reserving them.
        let mut stream = 7u32.to_le_bytes().to_vec();
        stream.extend(MAX_FRAME.to_le_bytes());
        let (r, got, err) = parse(&[&stream, &[0; 100]]);
        assert_eq!((got, err), (vec![], None));
        assert!(r.buf.capacity() < 4096, "capacity {}", r.buf.capacity());
    }

    #[test]
    fn undecodable_payloads_are_errors() {
        let mut truncated = frame(&routed());
        truncated.truncate(truncated.len() - 3);
        let len = truncated.len() as u32 - 4;
        truncated[..4].copy_from_slice(&len.to_le_bytes());
        // Overlay tag 9 belonged to a retired message.
        let tag9 = [2u32.to_le_bytes().as_slice(), &[0, 9]].concat();
        for bad in [truncated, tag9] {
            let stream = [7u32.to_le_bytes().as_slice(), &bad].concat();
            let (_, got, err) = parse(&[&stream]);
            assert_eq!((got, err), (vec![], Some(BadFrame)), "{bad:?}");
        }
    }

    #[test]
    fn eof_before_the_hello_names_no_peer() {
        let (r, got, err) = parse(&[&[1, 2, 3]]);
        assert_eq!((r.from, got, err), (None, vec![], None));
    }

    #[test]
    fn random_bytes_never_panic() {
        let mut rng = StdRng::seed_from_u64(29);
        let good = [7u32.to_le_bytes().as_slice(), &frame(&routed())].concat();
        for _ in 0..2_000 {
            let mut stream = good.clone();
            for _ in 0..rng.gen_range(1..4) {
                let i = rng.gen_range(0..stream.len());
                stream[i] = rng.gen();
            }
            stream.truncate(rng.gen_range(0..=stream.len()));
            let junk: Vec<u8> = (0..rng.gen_range(0..64)).map(|_| rng.gen()).collect();
            let (r, _, _) = parse(&[&stream, &junk]);
            assert!(r.buf.len() <= stream.len() + junk.len());
        }
    }
}
