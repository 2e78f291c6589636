//! Differential properties of lazy framing: [`frame_message`] must
//! accept, wait and reject on exactly the inputs where the owned
//! decoder does, consuming the same length, and an [`UpdateView`]'s
//! NLRI must equal the owned decode's `announced` and `withdrawn`.

use proptest::prelude::*;
use tdat_bgp::{
    frame_message, AsPath, AsPathSegment, BgpMessage, NotificationMessage, OpenMessage, Origin,
    PathAttribute, TableGenerator, UpdateMessage, UpdateView,
};

/// Compares framing and owned decode on the bytes at the front of
/// `buf`; for an accepted UPDATE, also compares the view's NLRI.
fn agree(buf: &[u8]) -> Result<(), TestCaseError> {
    let mut rest = buf;
    let decoded = BgpMessage::decode(&mut rest);
    let framed = frame_message(buf);
    match (&decoded, framed) {
        (Ok(Some(msg)), Ok(Some(len))) => {
            prop_assert_eq!(len, buf.len() - rest.len());
            if let BgpMessage::Update(owned) = msg {
                let view = UpdateView::new(&buf[..len])
                    .ok_or_else(|| TestCaseError::fail("framed update has no view"))?;
                prop_assert_eq!(
                    view.announced.iter().collect::<Vec<_>>(),
                    owned.announced.clone()
                );
                prop_assert_eq!(
                    view.withdrawn.iter().collect::<Vec<_>>(),
                    owned.withdrawn.clone()
                );
            }
        }
        (Ok(None), Ok(None)) | (Err(_), Err(_)) => {}
        _ => {
            return Err(TestCaseError::fail(format!(
                "decode {decoded:?} vs frame {framed:?} on {buf:02x?}"
            )))
        }
    }
    Ok(())
}

/// Checks agreement at every offset of `stream`, as the extractor's
/// skip-one-byte resync would visit them.
fn agree_everywhere(stream: &[u8]) -> Result<(), TestCaseError> {
    (0..=stream.len()).try_for_each(|at| agree(&stream[at..]))
}

/// A stream exercising every message type and every attribute variant
/// the codec knows, plus an unknown extended-length attribute.
fn varied_stream() -> Vec<u8> {
    let attributes = vec![
        PathAttribute::Origin(Origin::Egp),
        PathAttribute::AsPath(AsPath {
            segments: vec![
                AsPathSegment::Sequence(vec![65001, 174]),
                AsPathSegment::Set(vec![3356, 1299]),
            ],
        }),
        PathAttribute::NextHop("192.0.2.1".parse().unwrap()),
        PathAttribute::Med(10),
        PathAttribute::LocalPref(100),
        PathAttribute::AtomicAggregate,
        PathAttribute::Aggregator(65002, "10.2.3.4".parse().unwrap()),
        PathAttribute::Communities(vec![0x0001_0002, 0xffff_0001]),
        PathAttribute::As4Path(vec![vec![4_200_000_001, 65_001]]),
        PathAttribute::Unknown {
            flags: 0x80,
            type_code: 99,
            value: vec![7; 300],
        },
    ];
    let messages = [
        BgpMessage::Open(OpenMessage {
            opt_params: vec![2, 6, 1, 4, 0, 1, 0, 1],
            ..OpenMessage::new(65001, 180, "10.0.0.1".parse().unwrap())
        }),
        BgpMessage::Keepalive,
        BgpMessage::Update(UpdateMessage {
            withdrawn: vec!["10.9.0.0/16".parse().unwrap(), "0.0.0.0/0".parse().unwrap()],
            attributes,
            announced: vec![
                "203.0.113.0/24".parse().unwrap(),
                "198.51.100.128/25".parse().unwrap(),
                "8.0.0.0/7".parse().unwrap(),
                "192.0.2.7/32".parse().unwrap(),
            ],
        }),
        BgpMessage::Notification(NotificationMessage {
            code: 6,
            subcode: 2,
            data: vec![1, 2, 3],
        }),
    ];
    messages.iter().flat_map(BgpMessage::to_bytes).collect()
}

/// A valid stream: a small generated table followed by the varied
/// messages.
fn valid_stream(seed: u64) -> Vec<u8> {
    let mut stream = TableGenerator::new(seed)
        .routes(40)
        .generate()
        .to_update_stream();
    stream.extend(varied_stream());
    stream
}

/// Byte values that sit on the codec's decision boundaries: type codes,
/// origin codes, segment kinds, the extended-length flag, prefix
/// lengths around 32, and the marker byte.
fn edge_byte() -> impl Strategy<Value = u8> {
    prop_oneof![
        any::<u8>(),
        0u8..20,
        30u8..35,
        Just(0x10),
        Just(0x50),
        Just(0xff),
    ]
}

/// An edit of a valid stream.
#[derive(Debug, Clone)]
enum Edit {
    /// Overwrite the byte at the position.
    Set(usize, u8),
    /// Insert a byte before the position.
    Insert(usize, u8),
    /// Remove the byte at the position.
    Remove(usize),
}

fn edit() -> impl Strategy<Value = Edit> {
    (0u8..3, any::<u32>(), edge_byte()).prop_map(|(kind, at, byte)| {
        let at = at as usize;
        match kind {
            0 => Edit::Set(at, byte),
            1 => Edit::Insert(at, byte),
            _ => Edit::Remove(at),
        }
    })
}

fn apply(stream: &mut Vec<u8>, edits: &[Edit]) {
    for edit in edits {
        if stream.is_empty() {
            return;
        }
        match *edit {
            Edit::Set(at, byte) => {
                let at = at % stream.len();
                stream[at] = byte;
            }
            Edit::Insert(at, byte) => stream.insert(at % (stream.len() + 1), byte),
            Edit::Remove(at) => {
                stream.remove(at % stream.len());
            }
        }
    }
}

/// A header-shaped buffer: the all-ones marker, a length that usually
/// matches the body, a type code near the valid range, and arbitrary
/// body bytes — so arbitrary inputs reach the body checks instead of
/// failing on the marker.
fn header_shaped() -> impl Strategy<Value = Vec<u8>> {
    (
        prop::collection::vec(edge_byte(), 0..120),
        0u8..7,
        0u8..4,
        any::<u16>(),
    )
        .prop_map(|(body, type_code, length_mode, raw_len)| {
            let len = match length_mode {
                0 => raw_len,
                1 => (19 + body.len() as u16).saturating_sub(raw_len % 4),
                _ => 19 + body.len() as u16,
            };
            let mut buf = vec![0xff; 16];
            buf.extend_from_slice(&len.to_be_bytes());
            buf.push(type_code);
            buf.extend(body);
            buf
        })
}

/// One NLRI entry's bytes: a length byte near the 32-bit limit and
/// usually exactly the address bytes it calls for.
fn nlri_entry() -> impl Strategy<Value = Vec<u8>> {
    (0u8..34, 0u8..6, prop::collection::vec(any::<u8>(), 0..5)).prop_map(|(len, exact, bytes)| {
        let mut entry = vec![len];
        if exact == 0 {
            entry.extend(bytes);
        } else {
            entry.extend((0..usize::from(len).div_ceil(8)).map(|i| *bytes.get(i).unwrap_or(&0xa5)));
        }
        entry
    })
}

/// An attribute value shaped like AS_PATH / AS4_PATH segments: kind,
/// count, then ASN bytes, usually as many as the count calls for.
fn segments_value() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(
        (
            0u8..4,
            0u8..4,
            prop_oneof![Just(2usize), Just(4)],
            0u8..4,
            any::<u8>(),
        ),
        0..3,
    )
    .prop_map(|segments| {
        let mut value = Vec::new();
        for (kind, count, asn_len, fudge, byte) in segments {
            value.extend([kind, count]);
            let n = (usize::from(count) * asn_len).saturating_sub(usize::from(fudge == 0));
            value.extend(std::iter::repeat_n(byte, n));
        }
        value
    })
}

/// One path attribute's bytes: every interpreted type code (and a few
/// unknown ones), with and without the extended-length flag, carrying a
/// value near the lengths the decoder demands.
fn attribute() -> impl Strategy<Value = Vec<u8>> {
    let types = [1u8, 2, 3, 4, 5, 6, 7, 8, 17, 0, 99];
    let flags = [0x40u8, 0x50, 0x80, 0xc0, 0xd0];
    (
        0usize..types.len(),
        0usize..flags.len(),
        prop_oneof![
            prop::collection::vec(edge_byte(), 0..9),
            prop::collection::vec(0u8..4, 0..3),
            segments_value(),
        ],
    )
        .prop_map(move |(t, f, value)| {
            let (flags, type_code) = (flags[f], types[t]);
            let mut attr = vec![flags, type_code];
            if flags & 0x10 != 0 {
                attr.extend((value.len() as u16).to_be_bytes());
            } else {
                attr.push(value.len() as u8);
            }
            attr.extend(value);
            attr
        })
}

/// A structurally plausible UPDATE: generated withdrawn routes, path
/// attributes and NLRI under section lengths that are usually exact —
/// so the cases reach every body check the decoder makes.
fn structured_update() -> impl Strategy<Value = Vec<u8>> {
    (
        prop::collection::vec(nlri_entry(), 0..3),
        prop::collection::vec(attribute(), 0..4),
        prop::collection::vec(nlri_entry(), 0..4),
        0u8..8,
    )
        .prop_map(|(withdrawn, attributes, announced, fudge)| {
            let withdrawn: Vec<u8> = withdrawn.concat();
            let attributes: Vec<u8> = attributes.concat();
            let section = |len: usize, which: u8| {
                let len = len as u16;
                match (fudge, which) {
                    (1, 0) | (2, 1) => len.wrapping_add(1),
                    (3, 0) | (4, 1) => len.wrapping_sub(1),
                    _ => len,
                }
            };
            let mut body = Vec::new();
            body.extend(section(withdrawn.len(), 0).to_be_bytes());
            body.extend(&withdrawn);
            body.extend(section(attributes.len(), 1).to_be_bytes());
            body.extend(&attributes);
            body.extend(announced.concat());
            let mut wire = vec![0xff; 16];
            wire.extend((19 + body.len() as u16).to_be_bytes());
            wire.push(2);
            wire.extend(body);
            wire
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    #[test]
    fn framing_agrees_with_decode_on_structured_updates(
        updates in prop::collection::vec(structured_update(), 1..4),
    ) {
        for update in &updates {
            agree(update)?;
        }
        agree_everywhere(&updates.concat())?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn framing_agrees_with_decode_on_arbitrary_bytes(
        bytes in prop::collection::vec(any::<u8>(), 0..80),
    ) {
        agree_everywhere(&bytes)?;
    }

    #[test]
    fn framing_agrees_with_decode_on_header_shaped_bytes(buf in header_shaped()) {
        agree(&buf)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Mutated valid streams: every offset the resync loop could visit
    /// gets the same accept/wait/reject decision and consumed length,
    /// and every UPDATE that survives its mutation views to the owned
    /// NLRI.
    #[test]
    fn framing_agrees_with_decode_on_mutated_streams(
        seed in 0u64..1_000,
        edits in prop::collection::vec(edit(), 1..12),
    ) {
        let mut stream = valid_stream(seed);
        apply(&mut stream, &edits);
        agree_everywhere(&stream)?;
    }
}

#[test]
fn unmutated_streams_frame_message_by_message() {
    for seed in 0..4 {
        let stream = valid_stream(seed);
        agree_everywhere(&stream).unwrap();
        let mut at = 0;
        while at < stream.len() {
            at += frame_message(&stream[at..]).unwrap().unwrap();
        }
        assert_eq!(at, stream.len());
    }
}
