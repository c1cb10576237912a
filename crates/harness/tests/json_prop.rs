//! Property tests of the run-copying JSON codec against the
//! char-by-char escaper and the `format!`/`join` emitters it replaced,
//! kept here only as references.

use dexlego_harness::json::{self, parse, Value};
use proptest::collection::vec;
use proptest::prelude::*;
use proptest::sample::select;
use proptest::test_runner::TestRng;

fn reference_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{2028}' => out.push_str("\\u2028"),
            '\u{2029}' => out.push_str("\\u2029"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn reference_string(s: &str) -> String {
    format!("\"{}\"", reference_escape(s))
}

fn reference_to_json(value: &Value) -> String {
    match value {
        Value::Null => "null".to_owned(),
        Value::Bool(b) => b.to_string(),
        Value::Num(raw) => raw.clone(),
        Value::Str(s) => reference_string(s),
        Value::Arr(items) => {
            let elements: Vec<String> = items.iter().map(reference_to_json).collect();
            format!("[{}]", elements.join(", "))
        }
        Value::Obj(members) => {
            let body: Vec<String> = members
                .iter()
                .map(|(k, v)| format!("{}: {}", reference_string(k), reference_to_json(v)))
                .collect();
            format!("{{{}}}", body.join(", "))
        }
    }
}

/// Strings dense in everything the escaper treats specially: quotes,
/// backslashes, every control byte, U+2028/U+2029 and their E2-led
/// neighbours, and multibyte characters right next to escapes.
fn tricky_string() -> impl Strategy<Value = String> {
    let ch = prop_oneof![
        any::<char>(),
        (0u32..0x20).prop_map(|c| char::from_u32(c).unwrap()),
        select(vec![
            '"', '\\', '/', '\u{7f}', '\u{2028}', '\u{2029}', '\u{2027}', '\u{202a}', '€', 'é',
            '😀', 'a',
        ]),
    ];
    vec(ch, 0..48).prop_map(|chars| chars.into_iter().collect())
}

/// A random JSON value at most `depth` containers deep, with strings from
/// the same alphabet as [`tricky_string`].
fn random_value(rng: &mut TestRng, depth: u32) -> Value {
    let alphabet = ['"', '\\', '\n', '\u{1}', '\u{2028}', 'é', '😀', 'k', ' '];
    let text = |rng: &mut TestRng| -> String {
        (0..rng.below(6))
            .map(|_| alphabet[rng.below(alphabet.len() as u64) as usize])
            .collect()
    };
    match rng.below(if depth == 0 { 4 } else { 6 }) {
        0 => Value::Null,
        1 => Value::Bool(rng.below(2) == 1),
        2 => Value::Num(rng.next_u64().to_string()),
        3 => Value::Str(text(rng)),
        4 => Value::Arr(
            (0..rng.below(4))
                .map(|_| random_value(rng, depth - 1))
                .collect(),
        ),
        _ => Value::Obj(
            (0..rng.below(4))
                .map(|_| (text(rng), random_value(rng, depth - 1)))
                .collect(),
        ),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn escape_matches_the_char_by_char_escaper(s in tricky_string()) {
        prop_assert_eq!(json::escape(&s), reference_escape(&s));
        prop_assert_eq!(json::string(&s), reference_string(&s));
    }

    #[test]
    fn emitted_strings_parse_back(s in tricky_string()) {
        prop_assert_eq!(parse(&json::string(&s)), Ok(Value::Str(s)));
    }

    #[test]
    fn raw_control_characters_are_rejected(
        before in tricky_string(),
        control in 0u32..0x20,
        after in tricky_string(),
    ) {
        let control = char::from_u32(control).unwrap();
        let doc = format!(
            "\"{}{control}{}\"",
            json::escape(&before),
            json::escape(&after)
        );
        prop_assert!(parse(&doc).is_err(), "{doc:?} accepted");
    }

    #[test]
    fn to_json_matches_the_format_join_emitter(seed in any::<u64>()) {
        let value = random_value(&mut TestRng::new(seed), 3);
        let emitted = value.to_json();
        prop_assert_eq!(&emitted, &reference_to_json(&value));
        prop_assert_eq!(parse(&emitted), Ok(value));
    }

    #[test]
    fn object_and_array_match_the_format_join_emitter(
        keys in vec(tricky_string(), 0..5),
        values in vec(any::<u64>(), 0..5),
    ) {
        let elements: Vec<String> = values.iter().map(u64::to_string).collect();
        let members: Vec<(&str, String)> = keys
            .iter()
            .map(String::as_str)
            .zip(elements.iter().cloned())
            .collect();
        let reference_members: Vec<String> = members
            .iter()
            .map(|(k, v)| format!("{}: {v}", reference_string(k)))
            .collect();
        prop_assert_eq!(
            json::object(&members),
            format!("{{{}}}", reference_members.join(", "))
        );
        prop_assert_eq!(json::array(&elements), format!("[{}]", elements.join(", ")));
    }
}
