//! Property test of the wire protocol over arbitrary text: `parse_request`
//! and `handle_line` never panic, every request line gets exactly one
//! reply line (a JSON object with a boolean `"ok"`), and every line
//! `parse_request` rejects is answered `"ok":false`.

use proptest::prelude::*;
use qlb_obs::NoopSink;
use qlb_serve::{handle_line, parse_request, ServeConfig, ServeCore};
use serde_json::{parse_value_str, Value};

/// Pieces the free-form generator strings together: JSON syntax, the
/// protocol's keys and ops, awkward numbers and escapes, control and
/// non-ASCII characters.
const FRAGMENTS: &[&str] = &[
    "{",
    "}",
    "[",
    "]",
    ":",
    ",",
    "\"",
    "\\",
    " ",
    "\t",
    "\r",
    "\n",
    "\"op\"",
    "\"place\"",
    "\"depart\"",
    "\"query\"",
    "\"stats\"",
    "\"drain\"",
    "\"shutdown\"",
    "\"fly\"",
    "\"class\"",
    "\"weight\"",
    "\"user\"",
    "\"resource\"",
    "0",
    "1",
    "7",
    "-1",
    "4294967295",
    "4294967296",
    "18446744073709551616",
    "1e3",
    "3.5",
    "-0",
    "null",
    "true",
    "false",
    "\"\"",
    "\"\\u0000\"",
    "\"\\n\"",
    "\"\\ud800\"",
    "\\u00e9",
    "é",
    "€",
    "\u{0}",
    "\u{1b}",
    "\u{7f}",
    "\u{2028}",
    "\u{10ffff}",
];

const OPS: &[&str] = &[
    "\"place\"",
    "\"depart\"",
    "\"query\"",
    "\"stats\"",
    "\"drain\"",
    "\"shutdown\"",
    "\"PLACE\"",
    "\"pl\\u0061ce\"",
    "\"\\n\"",
    "\"\"",
    "7",
    "null",
    "[\"place\"]",
];
const KEYS: &[&str] = &[
    "\"class\"",
    "\"weight\"",
    "\"user\"",
    "\"resource\"",
    "\"op\"",
    "\"extra\"",
];
const VALUES: &[&str] = &[
    "0",
    "1",
    "3",
    "7",
    "9",
    "-1",
    "4294967295",
    "4294967296",
    "2.5",
    "1e2",
    "null",
    "true",
    "\"1\"",
    "\"\\u2028\"",
    "[]",
    "{}",
];

/// Free-form text: fragments mixed with random Unicode scalar values.
fn text() -> impl Strategy<Value = String> {
    proptest::collection::vec((0usize..FRAGMENTS.len() + 8, 0u32..0x11_0000), 0..24).prop_map(
        |parts| {
            parts
                .into_iter()
                .map(|(i, c)| match FRAGMENTS.get(i) {
                    Some(f) => f.to_string(),
                    None => char::from_u32(c).unwrap_or('\u{fffd}').to_string(),
                })
                .collect()
        },
    )
}

/// Request-shaped objects: an op (valid or not) plus up to three fields.
fn request() -> impl Strategy<Value = String> {
    (
        0usize..OPS.len(),
        proptest::collection::vec((0usize..KEYS.len(), 0usize..VALUES.len()), 0..=3),
    )
        .prop_map(|(op, fields)| {
            let mut s = format!("{{\"op\":{}", OPS[op]);
            for (k, v) in fields {
                s.push_str(&format!(",{}:{}", KEYS[k], VALUES[v]));
            }
            s.push('}');
            s
        })
}

fn check_one_reply(line: &str) {
    let parsed = parse_request(line);
    let mut core = ServeCore::with_capacities(&[4; 8], 64, ServeConfig::new(7)).unwrap();
    let reply = handle_line(&mut core, line, &mut NoopSink);
    prop_assert!(
        !reply.text.contains('\n'),
        "reply to {line:?} spans lines: {:?}",
        reply.text
    );
    let v = parse_value_str(&reply.text)
        .unwrap_or_else(|e| panic!("reply to {line:?} is not JSON ({e}): {}", reply.text));
    let ok = v.get("ok").and_then(Value::as_bool);
    prop_assert!(ok.is_some(), "reply to {line:?} lacks ok: {}", reply.text);
    if parsed.is_err() {
        prop_assert_eq!(ok, Some(false), "{line:?} → {}", reply.text);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn arbitrary_text_gets_exactly_one_reply_line(line in text()) {
        check_one_reply(&line);
    }

    #[test]
    fn request_shaped_text_gets_exactly_one_reply_line(line in request()) {
        check_one_reply(&line);
    }
}
