//! The binary encoding of events in the write-ahead log.
//!
//! The engine never serialises an event to pass it between units: units share
//! one address space (§4), so immutable event data is passed by reference. It
//! serialises in one place: the write-ahead log encodes every logged batch with
//! [`encode_wal_batch_into`], and recovery decodes it with [`decode_wal_record`].
//! [`encode_event`] encodes one event on its own, in the same per-event format.
//!
//! The format is a straightforward length-prefixed, little-endian encoding with no
//! external dependencies beyond the `bytes` crate.

use bytes::{Buf, BufMut, Bytes, BytesMut};

use defcon_defc::{Label, Privilege, PrivilegeKind, Tag, TagId, TagSet};

use crate::event::{Event, EventId};
use crate::part::Part;
use crate::value::Value;
use crate::EventError;

/// Serialises an event into a freshly allocated byte buffer.
pub fn encode_event(event: &Event) -> Bytes {
    let mut buf = BytesMut::with_capacity(128);
    encode_event_into(&mut buf, event);
    buf.freeze()
}

fn encode_event_into(buf: &mut BytesMut, event: &Event) {
    buf.put_u64_le(event.id().as_u64());
    buf.put_u64_le(event.origin_ns());
    encode_parts_into(buf, event.parts());
}

fn decode_event_from(buf: &mut &[u8]) -> Result<Event, EventError> {
    let id = take_u64(buf)?;
    let origin_ns = take_u64(buf)?;
    let parts = decode_parts_from(buf)?;
    Event::with_identity(EventId::from_raw(id), parts, origin_ns)
}

fn encode_parts_into(buf: &mut BytesMut, parts: &[Part]) {
    buf.put_u32_le(parts.len() as u32);
    for part in parts {
        encode_part(buf, part);
    }
}

fn decode_parts_from(buf: &mut &[u8]) -> Result<Vec<Part>, EventError> {
    let part_count = take_u32(buf)? as usize;
    if part_count > 1_000_000 {
        return Err(EventError::Codec(format!(
            "implausible part count {part_count}"
        )));
    }
    let mut parts = Vec::with_capacity(part_count.min(4096));
    for _ in 0..part_count {
        parts.push(decode_part(buf)?);
    }
    Ok(parts)
}

/// One write-ahead-log record: everything the engine needs to re-feed an
/// externally published batch through normal dispatch after a crash.
#[derive(Debug)]
pub struct WalRecord {
    /// Raw id of the publishing unit.
    pub publisher_unit: u64,
    /// The publisher's output label at publish time (diagnostics: events carry
    /// their raised labels themselves).
    pub output_label: Label,
    /// The arrival timestamp stamped on the whole batch, in nanoseconds.
    pub arrival_ns: u64,
    /// The batch's events, in publish order, identities preserved.
    pub events: Vec<Event>,
}

/// Appends the encoding of one logged batch to `buf`: publisher unit, output
/// label and arrival timestamp, then the batch's events (ids preserved). The
/// batch is borrowed, so a log writer can reuse one buffer and never clone it.
pub fn encode_wal_batch_into(
    buf: &mut BytesMut,
    publisher_unit: u64,
    output_label: &Label,
    arrival_ns: u64,
    events: &[Event],
) {
    buf.put_u64_le(publisher_unit);
    encode_label(buf, output_label);
    buf.put_u64_le(arrival_ns);
    buf.put_u32_le(events.len() as u32);
    for event in events {
        encode_event_into(buf, event);
    }
}

/// Deserialises a [`WalRecord`] produced by [`encode_wal_batch_into`], preserving
/// every event's identity and rejecting trailing bytes.
pub fn decode_wal_record(mut data: &[u8]) -> Result<WalRecord, EventError> {
    let buf = &mut data;
    let publisher_unit = take_u64(buf)?;
    let output_label = decode_label(buf)?;
    let arrival_ns = take_u64(buf)?;
    let event_count = take_u32(buf)? as usize;
    if event_count > 1_000_000 {
        return Err(EventError::Codec(format!(
            "implausible event count {event_count}"
        )));
    }
    let mut events = Vec::with_capacity(event_count.min(4096));
    for _ in 0..event_count {
        events.push(decode_event_from(buf)?);
    }
    if !buf.is_empty() {
        return Err(EventError::Codec("trailing bytes after wal record".into()));
    }
    Ok(WalRecord {
        publisher_unit,
        output_label,
        arrival_ns,
        events,
    })
}

fn encode_part(buf: &mut BytesMut, part: &Part) {
    put_str(buf, part.name());
    encode_label(buf, part.label());
    encode_value(buf, part.data());
    buf.put_u32_le(part.privileges().len() as u32);
    for privilege in part.privileges() {
        buf.put_u8(encode_privilege_kind(privilege.kind));
        buf.put_u128_le(privilege.tag.id().as_raw());
    }
}

fn decode_part(buf: &mut &[u8]) -> Result<Part, EventError> {
    let name = take_str(buf)?;
    let label = decode_label(buf)?;
    let data = decode_value(buf)?;
    let privilege_count = take_u32(buf)? as usize;
    let mut privileges = Vec::with_capacity(privilege_count);
    for _ in 0..privilege_count {
        let kind = decode_privilege_kind(take_u8(buf)?)?;
        let tag = Tag::from_id(TagId::from_raw(take_u128(buf)?));
        privileges.push(Privilege::new(tag, kind));
    }
    Ok(if privileges.is_empty() {
        Part::new(name, label, data)
    } else {
        Part::with_privileges(name, label, data, privileges)
    })
}

fn encode_label(buf: &mut BytesMut, label: &Label) {
    encode_tagset(buf, label.confidentiality());
    encode_tagset(buf, label.integrity());
}

fn decode_label(buf: &mut &[u8]) -> Result<Label, EventError> {
    let conf = decode_tagset(buf)?;
    let integ = decode_tagset(buf)?;
    Ok(Label::new(conf, integ))
}

fn encode_tagset(buf: &mut BytesMut, set: &TagSet) {
    buf.put_u32_le(set.len() as u32);
    for tag in set.iter() {
        buf.put_u128_le(tag.id().as_raw());
    }
}

fn decode_tagset(buf: &mut &[u8]) -> Result<TagSet, EventError> {
    let len = take_u32(buf)? as usize;
    let mut set = TagSet::empty();
    for _ in 0..len {
        set.insert(Tag::from_id(TagId::from_raw(take_u128(buf)?)));
    }
    Ok(set)
}

const TAG_NULL: u8 = 0;
const TAG_BOOL: u8 = 1;
const TAG_INT: u8 = 2;
const TAG_FLOAT: u8 = 3;
const TAG_STR: u8 = 4;
const TAG_BYTES: u8 = 5;
const TAG_TIMESTAMP: u8 = 6;
const TAG_TAGREF: u8 = 7;
const TAG_LIST: u8 = 8;
const TAG_MAP: u8 = 9;

fn encode_value(buf: &mut BytesMut, value: &Value) {
    match value {
        Value::Null => buf.put_u8(TAG_NULL),
        Value::Bool(v) => {
            buf.put_u8(TAG_BOOL);
            buf.put_u8(u8::from(*v));
        }
        Value::Int(v) => {
            buf.put_u8(TAG_INT);
            buf.put_i64_le(*v);
        }
        Value::Float(v) => {
            buf.put_u8(TAG_FLOAT);
            buf.put_f64_le(*v);
        }
        Value::Str(s) => {
            buf.put_u8(TAG_STR);
            put_str(buf, s);
        }
        Value::Bytes(b) => {
            buf.put_u8(TAG_BYTES);
            buf.put_u32_le(b.len() as u32);
            buf.put_slice(b);
        }
        Value::Timestamp(t) => {
            buf.put_u8(TAG_TIMESTAMP);
            buf.put_u64_le(*t);
        }
        Value::Tag(t) => {
            buf.put_u8(TAG_TAGREF);
            buf.put_u128_le(t.as_raw());
        }
        Value::List(list) => {
            buf.put_u8(TAG_LIST);
            buf.put_u32_le(list.len() as u32);
            for item in list.iter() {
                encode_value(buf, item);
            }
        }
        Value::Map(map) => {
            buf.put_u8(TAG_MAP);
            buf.put_u32_le(map.len() as u32);
            for (key, item) in map.iter() {
                put_str(buf, key);
                encode_value(buf, item);
            }
        }
    }
}

fn decode_value(buf: &mut &[u8]) -> Result<Value, EventError> {
    let tag = take_u8(buf)?;
    Ok(match tag {
        TAG_NULL => Value::Null,
        TAG_BOOL => Value::Bool(take_u8(buf)? != 0),
        TAG_INT => Value::Int(take_i64(buf)?),
        TAG_FLOAT => Value::Float(take_f64(buf)?),
        TAG_STR => Value::str(take_str(buf)?),
        TAG_BYTES => {
            let len = take_u32(buf)? as usize;
            Value::bytes(take_slice(buf, len)?.to_vec())
        }
        TAG_TIMESTAMP => Value::Timestamp(take_u64(buf)?),
        TAG_TAGREF => Value::Tag(TagId::from_raw(take_u128(buf)?)),
        // The element count is untrusted input, so it bounds the loop but
        // never sizes an allocation.
        TAG_LIST => {
            let len = take_u32(buf)?;
            Value::List(
                (0..len)
                    .map(|_| decode_value(buf))
                    .collect::<Result<_, _>>()?,
            )
        }
        TAG_MAP => {
            let len = take_u32(buf)?;
            let entry = |buf: &mut &[u8]| -> Result<_, EventError> {
                Ok((take_str(buf)?, decode_value(buf)?))
            };
            Value::Map((0..len).map(|_| entry(buf)).collect::<Result<_, _>>()?)
        }
        other => return Err(EventError::Codec(format!("unknown value tag {other}"))),
    })
}

fn encode_privilege_kind(kind: PrivilegeKind) -> u8 {
    match kind {
        PrivilegeKind::Add => 0,
        PrivilegeKind::Remove => 1,
        PrivilegeKind::AddAuthority => 2,
        PrivilegeKind::RemoveAuthority => 3,
    }
}

fn decode_privilege_kind(raw: u8) -> Result<PrivilegeKind, EventError> {
    Ok(match raw {
        0 => PrivilegeKind::Add,
        1 => PrivilegeKind::Remove,
        2 => PrivilegeKind::AddAuthority,
        3 => PrivilegeKind::RemoveAuthority,
        other => return Err(EventError::Codec(format!("unknown privilege kind {other}"))),
    })
}

fn put_str(buf: &mut BytesMut, s: &str) {
    buf.put_u32_le(s.len() as u32);
    buf.put_slice(s.as_bytes());
}

fn take_slice<'a>(buf: &mut &'a [u8], len: usize) -> Result<&'a [u8], EventError> {
    if buf.remaining() < len {
        return Err(EventError::Codec("unexpected end of input".into()));
    }
    let (head, tail) = buf.split_at(len);
    *buf = tail;
    Ok(head)
}

fn take_str(buf: &mut &[u8]) -> Result<String, EventError> {
    let len = take_u32(buf)? as usize;
    let bytes = take_slice(buf, len)?;
    String::from_utf8(bytes.to_vec()).map_err(|_| EventError::Codec("invalid utf-8".into()))
}

macro_rules! take_primitive {
    ($name:ident, $ty:ty, $get:ident, $size:expr) => {
        fn $name(buf: &mut &[u8]) -> Result<$ty, EventError> {
            if buf.remaining() < $size {
                return Err(EventError::Codec("unexpected end of input".into()));
            }
            Ok(buf.$get())
        }
    };
}

take_primitive!(take_u8, u8, get_u8, 1);
take_primitive!(take_u32, u32, get_u32_le, 4);
take_primitive!(take_u64, u64, get_u64_le, 8);
take_primitive!(take_i64, i64, get_i64_le, 8);
take_primitive!(take_f64, f64, get_f64_le, 8);
take_primitive!(take_u128, u128, get_u128_le, 16);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventBuilder;
    use crate::value::{ValueList, ValueMap};
    use defcon_defc::TagSet;

    fn rich_event() -> Event {
        let t = Tag::with_name("dark-pool");
        let map: ValueMap = [("price", Value::Float(1234.5)), ("qty", Value::Int(100))]
            .into_iter()
            .collect();
        let list: ValueList = [Value::str("a"), Value::Int(2), Value::Null]
            .into_iter()
            .collect();
        EventBuilder::new()
            .part("type", Label::public(), Value::str("bid"))
            .part(
                "body",
                Label::confidential(TagSet::singleton(t.clone())),
                Value::Map(map),
            )
            .part("history", Label::public(), Value::List(list))
            .privileged_part(
                "grant",
                Label::public(),
                Value::Tag(t.id()),
                vec![Privilege::add(t.clone()), Privilege::remove_authority(t)],
            )
            .part("blob", Label::public(), Value::bytes(vec![1, 2, 3, 255]))
            .part("stamp", Label::public(), Value::Timestamp(42))
            .part("flag", Label::public(), Value::Bool(true))
            .build()
            .unwrap()
    }

    /// Encodes `events` as one logged batch from unit 17, public, at 12345 ns.
    fn logged(events: &[Event]) -> BytesMut {
        let mut buf = BytesMut::new();
        encode_wal_batch_into(&mut buf, 17, &Label::public(), 12345, events);
        buf
    }

    /// The length of a logged batch's header: publisher unit, a public
    /// label's two empty tag sets, arrival timestamp and event count.
    const BATCH_HEADER: usize = 8 + 4 + 4 + 8 + 4;

    #[test]
    fn round_trip_preserves_structure() {
        let event = rich_event();
        let decoded = decode_wal_record(&logged(std::slice::from_ref(&event))).unwrap();
        let decoded = &decoded.events[0];

        assert_eq!(decoded.origin_ns(), event.origin_ns());
        assert_eq!(decoded.part_count(), event.part_count());

        for (a, b) in decoded.parts().iter().zip(event.parts()) {
            assert_eq!(a.name(), b.name());
            assert_eq!(a.label(), b.label());
            assert!(a.data().structurally_equals(b.data()));
            assert_eq!(a.privileges().len(), b.privileges().len());
            for (pa, pb) in a.privileges().iter().zip(b.privileges()) {
                assert_eq!(pa.kind, pb.kind);
                assert_eq!(pa.tag.id(), pb.tag.id());
            }
        }
    }

    #[test]
    fn decode_preserving_id_round_trips_identity() {
        let event = rich_event();
        let record = decode_wal_record(&logged(std::slice::from_ref(&event))).unwrap();
        let decoded = &record.events[0];
        assert_eq!(decoded.id(), event.id());
        assert_eq!(decoded.origin_ns(), event.origin_ns());
        assert_eq!(decoded.part_count(), event.part_count());
        // The sequence was advanced past the recovered id: fresh events do not
        // collide with it.
        assert!(rich_event().id().as_u64() > decoded.id().as_u64());
    }

    #[test]
    fn wal_record_round_trips_batch_metadata() {
        let t = Tag::with_name("wal-test");
        let label = Label::confidential(TagSet::singleton(t));
        let events = vec![rich_event(), rich_event()];
        let mut encoded = BytesMut::new();
        encode_wal_batch_into(&mut encoded, 17, &label, 12345, &events);
        let decoded = decode_wal_record(&encoded).unwrap();
        assert_eq!(decoded.publisher_unit, 17);
        assert_eq!(decoded.output_label, label);
        assert_eq!(decoded.arrival_ns, 12345);
        assert_eq!(decoded.events.len(), 2);
        for (a, b) in decoded.events.iter().zip(&events) {
            assert_eq!(a.id(), b.id(), "wal decode preserves event identity");
            assert_eq!(a.part_count(), b.part_count());
        }
        // Truncation anywhere must fail cleanly, and trailing bytes are rejected.
        assert!(decode_wal_record(&encoded[..encoded.len() - 1]).is_err());
        let mut padded = encoded.to_vec();
        padded.push(0);
        assert!(decode_wal_record(&padded).is_err());
    }

    #[test]
    fn decode_rejects_truncated_input() {
        let encoded = logged(&[rich_event()]);
        for cut in [0, 1, 5, BATCH_HEADER, encoded.len() / 2, encoded.len() - 1] {
            let result = decode_wal_record(&encoded[..cut]);
            assert!(result.is_err(), "cut at {cut} should fail");
        }
    }

    #[test]
    fn decode_rejects_unknown_value_tag() {
        let event = EventBuilder::new()
            .part("x", Label::public(), Value::Int(1))
            .build()
            .unwrap();
        let mut encoded = logged(&[event]).to_vec();
        // Corrupt the value type tag of the first part: it lives after the batch
        // header, the event header (8+8+4), the name (4+1) and the label (4+4).
        let offset = BATCH_HEADER + 8 + 8 + 4 + 4 + 1 + 4 + 4;
        assert_eq!(encoded[offset], TAG_INT);
        encoded[offset] = 0xEE;
        assert!(decode_wal_record(&encoded).is_err());
    }

    #[test]
    fn encoded_size_scales_with_payload() {
        let small = EventBuilder::new()
            .part("x", Label::public(), Value::Int(1))
            .build()
            .unwrap();
        let big = EventBuilder::new()
            .part("x", Label::public(), Value::str("y".repeat(10_000)))
            .build()
            .unwrap();
        assert!(encode_event(&big).len() > encode_event(&small).len() + 9_000);
    }

    #[test]
    fn empty_event_cannot_be_decoded_into_existence() {
        // Craft a logged batch holding one event that claims zero parts:
        // decoding must fail because events without parts are invalid.
        let mut buf = logged(&[]);
        let count_at = BATCH_HEADER - 4;
        buf[count_at..BATCH_HEADER].copy_from_slice(&1u32.to_le_bytes());
        buf.put_u64_le(1);
        buf.put_u64_le(0);
        buf.put_u32_le(0);
        assert!(matches!(
            decode_wal_record(&buf),
            Err(EventError::EmptyEvent)
        ));
    }
}
