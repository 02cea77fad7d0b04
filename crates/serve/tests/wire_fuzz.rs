//! Property tests of the wire protocol over arbitrary text: `parse_request`
//! and `handle_line` never panic, every request line gets exactly one
//! reply line (a JSON object with a boolean `"ok"`), and every line
//! `parse_request` rejects is answered `"ok":false`. The in-place scan of
//! the compact form either declines a line or returns exactly what the
//! reference value-tree parser returns, so `parse_request` answers every
//! line as the reference parser does.

use proptest::prelude::*;
use qlb_obs::NoopSink;
use qlb_serve::proto::{parse_request_value, scan_compact};
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

/// The ops and field keys of the compact form.
const COMPACT_OPS: &[&str] = &["place", "depart", "query", "stats", "drain", "shutdown"];
const COMPACT_KEYS: &[&str] = &["class", "weight", "user", "resource"];

/// The one change a near-canonical line carries.
#[derive(Debug, Clone, Copy)]
enum Mutation {
    None,
    Value(&'static str),
    LeadingZero,
    DuplicateKey,
    ReorderedKeys,
    Space,
    TrailingCr,
    EscapedOp,
    UnknownKey,
    ZeroWeight,
}

const MUTATIONS: &[Mutation] = &[
    Mutation::None,
    Mutation::None,
    Mutation::Value("999999999"),
    Mutation::Value("4294967295"),
    Mutation::Value("4294967296"),
    Mutation::LeadingZero,
    Mutation::Value("-0"),
    Mutation::DuplicateKey,
    Mutation::ReorderedKeys,
    Mutation::Space,
    Mutation::TrailingCr,
    Mutation::EscapedOp,
    Mutation::UnknownKey,
    Mutation::ZeroWeight,
];

/// A compact request line: `{"op":"<op>"`, the fields in order, `}`.
fn compact(op: &str, fields: &[(&str, String)]) -> String {
    let mut s = format!("{{\"op\":\"{op}\"");
    for (k, v) in fields {
        s.push_str(&format!(",\"{k}\":{v}"));
    }
    s.push('}');
    s
}

/// Near-canonical lines: a compact line of a known op with distinct
/// fields (small values, or any `u32`), as is or with one mutation.
fn near_canonical() -> impl Strategy<Value = (String, bool)> {
    (
        0usize..COMPACT_OPS.len(),
        proptest::collection::vec(
            (0usize..COMPACT_KEYS.len(), 0u32..12, 0u32..=u32::MAX),
            0..=4,
        ),
        0usize..MUTATIONS.len(),
        0usize..1 << 16,
    )
        .prop_map(|(op, raw, mutation, at)| {
            let op = COMPACT_OPS[op];
            let mut fields: Vec<(&str, String)> = Vec::new();
            for (k, small, big) in raw {
                let key = COMPACT_KEYS[k];
                if fields.iter().all(|(f, _)| *f != key) {
                    let v = if big % 2 == 0 { small } else { big };
                    fields.push((key, v.to_string()));
                }
            }
            let mutation = MUTATIONS[mutation];
            if fields.is_empty() && !matches!(mutation, Mutation::None) {
                fields.push((COMPACT_KEYS[at % COMPACT_KEYS.len()], "7".to_string()));
            }
            let pick = at % fields.len().max(1);
            let line = match mutation {
                Mutation::None => compact(op, &fields),
                Mutation::Value(v) => {
                    fields[pick].1 = v.to_string();
                    compact(op, &fields)
                }
                Mutation::LeadingZero => {
                    fields[pick].1.insert(0, '0');
                    compact(op, &fields)
                }
                Mutation::DuplicateKey => {
                    let (key, v) = fields[pick].clone();
                    let other = v.parse::<u64>().map_or(1, |v| (v + 1) % (1 << 32));
                    fields.push((key, other.to_string()));
                    compact(op, &fields)
                }
                Mutation::ReorderedKeys => {
                    let body = compact(op, &fields);
                    let (head, rest) = body.split_at(body.find(',').expect("a field"));
                    format!("{{{},{}}}", &rest[1..rest.len() - 1], &head[1..])
                }
                Mutation::Space => {
                    let mut line = compact(op, &fields);
                    line.insert(at % (line.len() + 1), ' ');
                    line
                }
                Mutation::TrailingCr => compact(op, &fields) + "\r",
                Mutation::EscapedOp => {
                    let c = op.as_bytes()[at % op.len()] as char;
                    let escaped = op.replacen(c, &format!("\\u{:04x}", c as u32), 1);
                    compact(&escaped, &fields)
                }
                Mutation::UnknownKey => {
                    fields.insert(pick, ("extra", "1".to_string()));
                    compact(op, &fields)
                }
                Mutation::ZeroWeight => {
                    fields.retain(|(k, _)| *k != "weight");
                    fields.insert(pick.min(fields.len()), ("weight", "0".to_string()));
                    compact(op, &fields)
                }
            };
            (line, matches!(mutation, Mutation::None))
        })
}

/// The scan declines `line` or returns the reference parser's `Ok`, and
/// `parse_request` answers it as the reference parser does.
fn check_scan(line: &str) {
    let want = parse_request_value(line);
    if let Some(req) = scan_compact(line.as_bytes()) {
        prop_assert_eq!(Ok(req), want.clone(), "scanned {line:?}");
    }
    prop_assert_eq!(parse_request(line), want, "{line:?}");
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

    #[test]
    fn scan_agrees_with_the_value_parser_on_arbitrary_text(line in text()) {
        check_scan(&line);
    }

    #[test]
    fn scan_agrees_with_the_value_parser_on_request_shaped_text(line in request()) {
        check_scan(&line);
    }

    #[test]
    fn scan_agrees_with_the_value_parser_near_the_compact_form(
        (line, unmutated) in near_canonical()
    ) {
        check_scan(&line);
        // the compact form itself takes the scan whenever it is valid
        if unmutated && parse_request_value(&line).is_ok() {
            prop_assert!(scan_compact(line.as_bytes()).is_some(), "declined {line:?}");
        }
    }
}
