//! Zero-allocation BGP framing and borrowed UPDATE views.
//!
//! [`frame_message`] answers the one question a stream extractor asks
//! of every byte offset — "does a whole, valid message start here, and
//! how long is it?" — without building a [`BgpMessage`]. It accepts,
//! waits and rejects on exactly the inputs where
//! [`BgpMessage::decode`] does, so framing a stream with it skips the
//! same bytes as decode-and-skip would.
//!
//! [`UpdateView`] then reads an UPDATE that framed successfully
//! straight from its wire bytes: the announced and withdrawn NLRI are
//! walked on demand, one [`Prefix`] at a time.

use std::fmt;

use crate::attrs::FLAG_EXT_LEN;
use crate::message::{UpdateMessage, BGP_HEADER_LEN, BGP_MAX_MESSAGE_LEN, KEEPALIVE_LEN};
use crate::prefix::Prefix;

/// Why the bytes at a stream position do not frame as a BGP message.
/// Carries only a static description, so rejecting costs no allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameError(&'static str);

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid {}", self.0)
    }
}

impl std::error::Error for FrameError {}

type Check<T = ()> = std::result::Result<T, FrameError>;

fn ensure(ok: bool, what: &'static str) -> Check {
    if ok {
        Ok(())
    } else {
        Err(FrameError(what))
    }
}

/// Validates the message at the front of `buf` without decoding it.
///
/// Returns `Ok(Some(len))` when a complete, valid message of `len`
/// bytes starts at `buf[0]`, `Ok(None)` when `buf` holds only a partial
/// message, and `Err` otherwise — on exactly the inputs where
/// [`BgpMessage::decode`](crate::BgpMessage::decode) returns
/// `Ok(Some(_))` after consuming `len` bytes, `Ok(None)` and `Err`
/// respectively.
///
/// # Errors
///
/// Fails on a bad marker, a length outside `[19, 4096]`, an unknown
/// type code, or a body the decoder would reject.
///
/// ```
/// use tdat_bgp::{frame_message, BgpMessage};
///
/// let wire = BgpMessage::Keepalive.to_bytes();
/// assert_eq!(frame_message(&wire), Ok(Some(19)));
/// assert_eq!(frame_message(&wire[..10]), Ok(None));
/// assert!(frame_message(&[0u8; 19]).is_err());
/// ```
pub fn frame_message(buf: &[u8]) -> Check<Option<usize>> {
    if buf.len() < BGP_HEADER_LEN {
        return Ok(None);
    }
    ensure(buf[..16].iter().all(|&b| b == 0xff), "bgp header marker")?;
    let len = usize::from(u16::from_be_bytes([buf[16], buf[17]]));
    ensure(
        (BGP_HEADER_LEN..=BGP_MAX_MESSAGE_LEN).contains(&len),
        "bgp header length",
    )?;
    if buf.len() < len {
        return Ok(None);
    }
    let body = &buf[BGP_HEADER_LEN..len];
    match buf[18] {
        1 => {
            ensure(body.len() >= 10, "open message")?;
            ensure(
                body.len() - 10 >= usize::from(body[9]),
                "open optional parameters",
            )?;
        }
        2 => check_update_body(body)?,
        3 => ensure(body.len() >= 2, "notification message")?,
        4 => ensure(len == KEEPALIVE_LEN, "keepalive message")?,
        _ => return Err(FrameError("bgp message type")),
    }
    Ok(Some(len))
}

/// Splits `buf` at a two-byte big-endian length prefix: the counted
/// section and the rest.
fn counted<'a>(buf: &'a [u8], what: &'static str) -> Check<(&'a [u8], &'a [u8])> {
    ensure(buf.len() >= 2, what)?;
    let n = usize::from(u16::from_be_bytes([buf[0], buf[1]]));
    let rest = &buf[2..];
    ensure(rest.len() >= n, what)?;
    Ok(rest.split_at(n))
}

/// The UPDATE body's three sections: withdrawn NLRI, path attributes,
/// announced NLRI.
fn update_sections(body: &[u8]) -> Check<(&[u8], &[u8], &[u8])> {
    let (withdrawn, rest) = counted(body, "withdrawn routes")?;
    let (attributes, announced) = counted(rest, "path attributes")?;
    Ok((withdrawn, attributes, announced))
}

fn check_update_body(body: &[u8]) -> Check {
    let (withdrawn, mut attributes, announced) = update_sections(body)?;
    check_nlri(withdrawn)?;
    while !attributes.is_empty() {
        attributes = check_attribute(attributes)?;
    }
    check_nlri(announced)
}

/// Reads one NLRI entry: the prefix and the bytes after it, or `None`
/// if the entry is malformed.
#[inline]
fn nlri_entry(buf: &[u8]) -> Option<(Prefix, &[u8])> {
    let (&len, rest) = buf.split_first()?;
    let nbytes = usize::from(len).div_ceil(8);
    if len > 32 || rest.len() < nbytes {
        return None;
    }
    // Bytes past the prefix's own fall under the host-bit mask, so a
    // whole-word load is exact whenever four bytes remain.
    let raw = match rest.first_chunk::<4>() {
        Some(word) => u32::from_be_bytes(*word),
        None => {
            let mut octets = [0u8; 4];
            octets[..nbytes].copy_from_slice(&rest[..nbytes]);
            u32::from_be_bytes(octets)
        }
    };
    Some((Prefix::masked(raw, len), &rest[nbytes..]))
}

fn check_nlri(mut buf: &[u8]) -> Check {
    while !buf.is_empty() {
        buf = nlri_entry(buf).ok_or(FrameError("nlri prefix"))?.1;
    }
    Ok(())
}

/// Validates one path attribute as `PathAttribute::decode` would and
/// returns the bytes after it.
fn check_attribute(buf: &[u8]) -> Check<&[u8]> {
    ensure(buf.len() >= 3, "path attribute header")?;
    let (flags, type_code) = (buf[0], buf[1]);
    let (vlen, rest) = if flags & FLAG_EXT_LEN != 0 {
        ensure(buf.len() >= 4, "path attribute length")?;
        (usize::from(u16::from_be_bytes([buf[2], buf[3]])), &buf[4..])
    } else {
        (usize::from(buf[2]), &buf[3..])
    };
    ensure(rest.len() >= vlen, "path attribute value")?;
    let (value, rest) = rest.split_at(vlen);
    match type_code {
        1 => ensure(matches!(value, [0..=2]), "origin attribute")?,
        2 => check_segments(value, 2, |kind| kind == 1 || kind == 2, "as_path segment")?,
        3 => ensure(vlen == 4, "next_hop attribute")?,
        4 | 5 => ensure(vlen == 4, "med/local_pref attribute")?,
        6 => ensure(vlen == 0, "atomic_aggregate attribute")?,
        7 => ensure(vlen == 6, "aggregator attribute")?,
        8 => ensure(vlen % 4 == 0, "communities attribute")?,
        17 => check_segments(value, 4, |kind| kind == 2, "as4_path segment")?,
        _ => {}
    }
    Ok(rest)
}

/// Validates AS_PATH-style segments: a kind byte, a count byte, then
/// `count` ASNs of `asn_len` bytes each.
fn check_segments(
    mut value: &[u8],
    asn_len: usize,
    kind_ok: impl Fn(u8) -> bool,
    what: &'static str,
) -> Check {
    while !value.is_empty() {
        ensure(value.len() >= 2, what)?;
        let (kind, count) = (value[0], usize::from(value[1]));
        value = &value[2..];
        ensure(kind_ok(kind) && value.len() >= count * asn_len, what)?;
        value = &value[count * asn_len..];
    }
    Ok(())
}

/// A run of NLRI prefixes borrowed from an UPDATE's wire bytes.
///
/// Iterating walks the bytes one prefix at a time, with host bits
/// masked as [`Prefix::new`] masks them. On bytes that
/// [`frame_message`] accepted every entry is well formed; on any other
/// bytes the walk stops at the first malformed entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Nlri<'a>(&'a [u8]);

impl<'a> Nlri<'a> {
    /// True if the run holds no prefix.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Number of prefixes (walks the run).
    pub fn len(&self) -> usize {
        self.iter().count()
    }

    /// The prefixes, in wire order.
    pub fn iter(&self) -> NlriIter<'a> {
        NlriIter(self.0)
    }
}

/// Iterator over the prefixes of an [`Nlri`] run.
#[derive(Debug, Clone)]
pub struct NlriIter<'a>(&'a [u8]);

impl Iterator for NlriIter<'_> {
    type Item = Prefix;

    fn next(&mut self) -> Option<Prefix> {
        let Some((prefix, rest)) = nlri_entry(self.0) else {
            self.0 = &[];
            return None;
        };
        self.0 = rest;
        Some(prefix)
    }
}

/// A borrowed UPDATE message: its NLRI sections located in the wire
/// bytes, nothing decoded until walked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UpdateView<'a> {
    /// Withdrawn routes.
    pub withdrawn: Nlri<'a>,
    /// Announced prefixes (NLRI).
    pub announced: Nlri<'a>,
}

impl<'a> UpdateView<'a> {
    /// Views the complete UPDATE message `wire` (header included).
    /// Returns `None` if `wire` is not an UPDATE whose section lengths
    /// fit the message.
    pub fn new(wire: &'a [u8]) -> Option<UpdateView<'a>> {
        if wire.len() < BGP_HEADER_LEN || wire[18] != 2 {
            return None;
        }
        let (withdrawn, _, announced) = update_sections(&wire[BGP_HEADER_LEN..]).ok()?;
        Some(UpdateView {
            withdrawn: Nlri(withdrawn),
            announced: Nlri(announced),
        })
    }
}

/// The NLRI of an UPDATE — what MCT reads — from either an owned
/// [`UpdateMessage`] or a borrowed [`UpdateView`], so one estimator
/// serves both.
pub trait UpdateNlri {
    /// The announced prefixes, in wire order.
    fn announced(&self) -> impl Iterator<Item = Prefix>;

    /// True if the update announces and withdraws nothing.
    fn carries_no_nlri(&self) -> bool;
}

impl UpdateNlri for &UpdateMessage {
    fn announced(&self) -> impl Iterator<Item = Prefix> {
        self.announced.iter().copied()
    }

    fn carries_no_nlri(&self) -> bool {
        self.announced.is_empty() && self.withdrawn.is_empty()
    }
}

impl UpdateNlri for UpdateView<'_> {
    fn announced(&self) -> impl Iterator<Item = Prefix> {
        self.announced.iter()
    }

    fn carries_no_nlri(&self) -> bool {
        self.announced.is_empty() && self.withdrawn.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AsPath, BgpMessage, Origin, PathAttribute};

    fn update() -> UpdateMessage {
        UpdateMessage {
            withdrawn: vec!["10.9.0.0/16".parse().unwrap()],
            attributes: vec![
                PathAttribute::Origin(Origin::Igp),
                PathAttribute::AsPath(AsPath::sequence([65001, 174])),
                PathAttribute::NextHop("192.0.2.1".parse().unwrap()),
            ],
            announced: vec![
                "203.0.113.0/24".parse().unwrap(),
                "0.0.0.0/0".parse().unwrap(),
                "198.51.100.128/25".parse().unwrap(),
            ],
        }
    }

    #[test]
    fn view_walks_the_owned_nlri() {
        let owned = update();
        let wire = BgpMessage::Update(owned.clone()).to_bytes();
        assert_eq!(frame_message(&wire), Ok(Some(wire.len())));
        let view = UpdateView::new(&wire).unwrap();
        assert_eq!(view.announced.iter().collect::<Vec<_>>(), owned.announced);
        assert_eq!(view.withdrawn.iter().collect::<Vec<_>>(), owned.withdrawn);
        assert_eq!(view.announced.len(), 3);
        assert!(!(&owned).carries_no_nlri() && !view.carries_no_nlri());
    }

    #[test]
    fn view_masks_host_bits() {
        // 10.1.2.3/16 on the wire carries host bits the owned decoder
        // masks away; the view must agree.
        let mut wire = BgpMessage::Update(UpdateMessage::default()).to_bytes();
        wire.extend_from_slice(&[16, 10, 1]);
        wire[17] += 3;
        let mut rest = &wire[..];
        let Some(BgpMessage::Update(owned)) = BgpMessage::decode(&mut rest).unwrap() else {
            panic!("decodes as an update");
        };
        let view = UpdateView::new(&wire).unwrap();
        assert_eq!(view.announced.iter().collect::<Vec<_>>(), owned.announced);
    }

    #[test]
    fn framing_rejects_what_decode_rejects() {
        let good = BgpMessage::Update(update()).to_bytes();
        // Origin value 9: the attribute header survives, the value not.
        let origin = good.iter().position(|&b| b == 0x40).unwrap();
        let mut bad = good.clone();
        bad[origin + 3] = 9;
        assert!(BgpMessage::decode(&mut &bad[..]).is_err());
        assert_eq!(frame_message(&bad), Err(FrameError("origin attribute")));
        assert_eq!(
            FrameError("origin attribute").to_string(),
            "invalid origin attribute"
        );
    }

    #[test]
    fn views_only_updates() {
        assert!(UpdateView::new(&BgpMessage::Keepalive.to_bytes()).is_none());
        assert!(UpdateView::new(&[0xff; 10]).is_none());
    }
}
