//! Property tests for the event codec: decoding a logged batch must reproduce
//! each event's identity and structure for arbitrary nested values, labels
//! and privileges. These are the encoder and decoder the write-ahead log and
//! recovery run.
//!
//! Events are generated from a drawn seed through a small deterministic PRNG
//! rather than a flattened strategy: the interesting inputs (nested
//! lists/maps, tag-ref values, interned labels with privilege-carrying parts)
//! are recursive, which a seed-driven generator expresses directly.

use bytes::BytesMut;
use defcon_defc::{Label, Privilege, PrivilegeKind, Tag, TagId, TagSet};
use defcon_events::codec::{decode_wal_record, encode_event, encode_wal_batch_into};
use defcon_events::{Event, Part, Value};
use proptest::prelude::*;

/// SplitMix64: tiny, deterministic, uniform enough for structure generation.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound.max(1)
    }
}

fn gen_tag(rng: &mut Gen) -> Tag {
    // A small pool of raw ids makes label/tag collisions across parts likely,
    // which is what exercises interning and set handling.
    Tag::from_id(TagId::from_raw(1 + rng.below(8) as u128))
}

fn gen_tagset(rng: &mut Gen) -> TagSet {
    let mut set = TagSet::empty();
    for _ in 0..rng.below(4) {
        set.insert(gen_tag(rng));
    }
    set
}

fn gen_label(rng: &mut Gen) -> Label {
    Label::new(gen_tagset(rng), gen_tagset(rng))
}

fn gen_value(rng: &mut Gen, depth: u32) -> Value {
    let choices = if depth == 0 { 8 } else { 10 };
    match rng.below(choices) {
        0 => Value::Null,
        1 => Value::Bool(rng.next() & 1 == 1),
        2 => Value::Int(rng.next() as i64),
        3 => Value::Float(rng.below(1_000_000) as f64 / 7.0),
        4 => Value::str(format!("s{}", rng.below(10_000))),
        5 => Value::bytes(
            (0..rng.below(16))
                .map(|_| rng.next() as u8)
                .collect::<Vec<u8>>(),
        ),
        6 => Value::Timestamp(rng.next()),
        7 => Value::Tag(gen_tag(rng).id()),
        8 => Value::List(
            (0..rng.below(4))
                .map(|_| gen_value(rng, depth - 1))
                .collect(),
        ),
        _ => Value::Map(
            (0..rng.below(4))
                .map(|i| (format!("k{i}"), gen_value(rng, depth - 1)))
                .collect(),
        ),
    }
}

fn gen_privileges(rng: &mut Gen) -> Vec<Privilege> {
    let kinds = [
        PrivilegeKind::Add,
        PrivilegeKind::Remove,
        PrivilegeKind::AddAuthority,
        PrivilegeKind::RemoveAuthority,
    ];
    (0..rng.below(3))
        .map(|_| Privilege::new(gen_tag(rng), kinds[rng.below(4) as usize]))
        .collect()
}

fn gen_event(rng: &mut Gen) -> Event {
    let part_count = 1 + rng.below(5) as usize;
    let parts = (0..part_count)
        .map(|_| {
            // Names collide on purpose: multi-version parts are valid events.
            let name = format!("part-{}", rng.below(4));
            let label = gen_label(rng);
            let data = gen_value(rng, 2);
            let privileges = gen_privileges(rng);
            if privileges.is_empty() {
                Part::new(name, label, data)
            } else {
                Part::with_privileges(name, label, data, privileges)
            }
        })
        .collect();
    Event::new(parts).unwrap()
}

fn assert_parts_structurally_equal(a: &Event, b: &Event) {
    assert_eq!(a.part_count(), b.part_count());
    for (pa, pb) in a.parts().iter().zip(b.parts()) {
        assert_eq!(pa.name(), pb.name());
        assert_eq!(pa.label(), pb.label());
        assert!(pa.data().structurally_equals(pb.data()));
        assert_eq!(pa.privileges().len(), pb.privileges().len());
        for (qa, qb) in pa.privileges().iter().zip(pb.privileges()) {
            assert_eq!(qa.kind, qb.kind);
            assert_eq!(qa.tag.id(), qb.tag.id());
        }
    }
}

/// Encodes `events` as one logged batch, as the write-ahead log does.
fn logged(
    publisher_unit: u64,
    output_label: &Label,
    arrival_ns: u64,
    events: &[Event],
) -> BytesMut {
    let mut buf = BytesMut::new();
    encode_wal_batch_into(&mut buf, publisher_unit, output_label, arrival_ns, events);
    buf
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn round_trip_preserves_structure(seed in 0u64..) {
        let mut rng = Gen(seed);
        let event = gen_event(&mut rng);
        let encoded = logged(1, &Label::public(), 0, std::slice::from_ref(&event));
        // A one-event batch ends with that event's own encoding.
        assert!(encoded.ends_with(&encode_event(&event)));

        let decoded = decode_wal_record(&encoded).unwrap();
        assert_eq!(decoded.events.len(), 1);
        let decoded = &decoded.events[0];
        assert_eq!(decoded.id(), event.id());
        assert_eq!(decoded.origin_ns(), event.origin_ns());
        assert_parts_structurally_equal(decoded, &event);
    }

    #[test]
    fn wal_record_round_trips(seed in 0u64..) {
        let mut rng = Gen(seed);
        let events: Vec<Event> = (0..1 + rng.below(4)).map(|_| gen_event(&mut rng)).collect();
        let publisher_unit = rng.next();
        let output_label = gen_label(&mut rng);
        let arrival_ns = rng.next();
        let encoded = logged(publisher_unit, &output_label, arrival_ns, &events);
        let decoded = decode_wal_record(&encoded).unwrap();
        assert_eq!(decoded.publisher_unit, publisher_unit);
        assert_eq!(decoded.output_label, output_label);
        assert_eq!(decoded.arrival_ns, arrival_ns);
        assert_eq!(decoded.events.len(), events.len());
        for (a, b) in decoded.events.iter().zip(&events) {
            assert_eq!(a.id(), b.id());
            assert_parts_structurally_equal(a, b);
        }
    }

    #[test]
    fn truncated_event_never_decodes(seed in 0u64..) {
        let mut rng = Gen(seed);
        let event = gen_event(&mut rng);
        let encoded = logged(1, &Label::public(), 0, &[event]);
        // Any strict prefix must fail cleanly — never panic, never yield an event.
        let cut = rng.below(encoded.len() as u64) as usize;
        assert!(decode_wal_record(&encoded[..cut]).is_err());
    }
}
