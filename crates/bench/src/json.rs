//! The workspace's one JSON codec: [`Json::render`] writes every
//! `BENCH_*.json` document (and `benchmark/`'s result files), [`parse`]
//! reads them back.
//!
//! The workspace is dependency-free (no serde), so this is a small
//! recursive-descent parser over the full JSON grammar (nesting bounded at
//! 128 levels) with a value model tailored to BENCH documents. Objects
//! preserve member order (insertion / document order) and parse ∘ render
//! is a fixed point, so a merged set of shard files is byte-identical to
//! the unsharded run's file.

use std::fmt;
use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer-syntax number (no `.`/exponent), kept exact: BENCH
    /// scenario seeds are full 64-bit values that `f64` would round, and
    /// the `--merge` workflow must copy them through bit-perfectly.
    Int(i128),
    /// Any other JSON number (read as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in member order. Lookup is a linear scan — BENCH objects
    /// have at most a few dozen members.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member `key` of an object, if this is an object and the key exists
    /// (first occurrence wins).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// An empty object (builder entry point for the merge tooling).
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Appends/overwrites member `key` of an object; panics on non-objects
    /// (merge tooling builds objects it just created).
    pub fn set(&mut self, key: &str, value: Json) {
        match self {
            Json::Obj(m) => {
                if let Some(slot) = m.iter_mut().find(|(k, _)| k == key) {
                    slot.1 = value;
                } else {
                    m.push((key.to_string(), value));
                }
            }
            _ => panic!("Json::set on a non-object"),
        }
    }

    /// Serializes to compact JSON text, preserving object member order.
    /// Integer-syntax numbers round-trip byte-exactly; `f64`s render via
    /// Rust's shortest-round-trip display (whole values keep a `.1` decimal
    /// so they stay `Num` on re-parse), so `parse(render(v)) == v` and
    /// `render` is a fixed point. JSON has no spelling for NaN or ±∞; they
    /// render as `null`.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(n) => {
                let _ = write!(out, "{n}");
            }
            Json::Num(n) => {
                // Keep non-integer syntax so a re-parse stays `Num`, making
                // parse ∘ render a fixed point: decimal point for values in
                // exact-i64 range, exponent form beyond it (where `{:.1}`
                // would lose the magnitude's tail and `{}` prints integer
                // syntax that would re-parse as `Int`).
                if !n.is_finite() {
                    out.push_str("null");
                } else if n.fract() != 0.0 {
                    let _ = write!(out, "{n}");
                } else if n.abs() < 9e15 {
                    let _ = write!(out, "{:.1}", *n);
                } else {
                    let _ = write!(out, "{n:e}");
                }
            }
            Json::Str(s) => render_str(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            Json::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    render_str(k, out);
                    out.push(':');
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }

    /// This value as a number (integers convert, rounding past 2^53 — use
    /// [`as_i128`](Json::as_i128) where exactness matters).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            Json::Int(n) => Some(*n as f64),
            _ => None,
        }
    }

    /// This value as an exact integer, if it was written in integer syntax.
    pub fn as_i128(&self) -> Option<i128> {
        match self {
            Json::Int(n) => Some(*n),
            _ => None,
        }
    }

    /// This value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// This value as an array slice.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Convenience: `self.get(key).and_then(Json::as_f64)`.
    pub fn num(&self, key: &str) -> Option<f64> {
        self.get(key).and_then(Json::as_f64)
    }

    /// Convenience: `self.get(key).and_then(Json::as_str)`.
    pub fn str(&self, key: &str) -> Option<&str> {
        self.get(key).and_then(Json::as_str)
    }
}

/// JSON string quoting.
fn render_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A parse failure with byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// What went wrong.
    pub msg: String,
    /// Byte offset in the input.
    pub at: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.msg, self.at)
    }
}

impl std::error::Error for JsonError {}

/// Deepest array/object nesting [`parse`] accepts. BENCH documents nest
/// six deep; the bound keeps hostile input (`[[[[…`) a positioned
/// [`JsonError`] instead of a stack overflow.
const MAX_DEPTH: usize = 128;

/// Parses one JSON document (trailing whitespace allowed; arrays and
/// objects may nest at most 128 deep).
pub fn parse(input: &str) -> Result<Json, JsonError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing data"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &str) -> JsonError {
        JsonError {
            msg: msg.to_string(),
            at: self.pos,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    /// Runs a container parser one level deeper, within `MAX_DEPTH`.
    fn nested(
        &mut self,
        container: fn(&mut Self) -> Result<Json, JsonError>,
    ) -> Result<Json, JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        self.depth += 1;
        let value = container(self);
        self.depth -= 1;
        value
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            members.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut out = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(out));
        }
        loop {
            self.skip_ws();
            out.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(out));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("bad escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| self.err("short \\u escape"))?;
                            let code = std::str::from_utf8(hex)
                                .ok()
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            // Surrogates are not produced by our writer;
                            // map unpaired ones to the replacement char.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                Some(_) => {
                    // Copy one UTF-8 scalar (input is a &str, so boundaries
                    // are valid).
                    let start = self.pos;
                    self.pos += 1;
                    while self.pos < self.bytes.len() && (self.bytes[self.pos] & 0xC0) == 0x80 {
                        self.pos += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.bytes[start..self.pos])
                            .map_err(|_| self.err("invalid utf-8"))?,
                    );
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut integral = true;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => {}
                b'.' | b'e' | b'E' | b'+' | b'-' => integral = false,
                _ => break,
            }
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("bad number"))?;
        if integral {
            // Integer syntax stays exact (u64 seeds overflow f64's 2^53).
            if let Ok(n) = text.parse::<i128>() {
                return Ok(Json::Int(n));
            }
        }
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err("bad number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn parses_scalars_and_nesting() {
        let v = parse(r#"{"a":1.5,"b":[true,false,null,"x\ny"],"c":{"d":-2e3}}"#).unwrap();
        assert_eq!(v.num("a"), Some(1.5));
        let b = v.get("b").unwrap().as_array().unwrap();
        assert_eq!(b[0], Json::Bool(true));
        assert_eq!(b[3], Json::Str("x\ny".into()));
        assert_eq!(v.get("c").unwrap().num("d"), Some(-2000.0));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse(r#"{"a":1} extra"#).is_err());
        assert!(parse("nope").is_err());
    }

    #[test]
    fn round_trips_a_real_sweep_json() {
        use tiering_policies::PolicyKind;
        use tiering_runner::{ScenarioMatrix, SweepRunner};
        use tiering_sim::SimConfig;
        use tiering_workloads::WorkloadId;

        let sweep = SweepRunner::serial().run(
            ScenarioMatrix::new(SimConfig::default().with_max_ops(500), 7)
                .workloads([WorkloadId::Silo])
                .policies([PolicyKind::FirstTouch, PolicyKind::HybridTier])
                .build(),
        );
        let section = crate::merge::sweep_section_json(&sweep, None);
        let v = parse(&section.render()).expect("writer output parses");
        assert_eq!(v, section, "parse ∘ render is the identity");
        let scenarios = v.get("sweep").unwrap().get("scenarios").unwrap();
        let scenarios = scenarios.as_array().unwrap();
        assert_eq!(scenarios.len(), 2);
        assert_eq!(scenarios[0].num("ops"), Some(500.0));
        assert!(scenarios[0].str("label").unwrap().contains("silo"));
        assert_eq!(
            scenarios[0].str("fingerprint").unwrap().len(),
            16,
            "hex outcome digest present"
        );
        assert_eq!(v.render(), section.render(), "and render a fixed point");
    }

    #[test]
    fn hostile_nesting_is_a_positioned_error_not_a_stack_overflow() {
        // 200 000 levels used to recurse the parser off the stack (SIGABRT).
        for open in ["[", "{\"k\":", "[{\"k\":"] {
            let err = parse(&open.repeat(200_000)).expect_err("too deep");
            assert_eq!(err.msg, "nesting too deep", "{open}");
            assert!(err.at > 0 && err.at <= open.len() * MAX_DEPTH, "{err}");
        }
        // The limit itself still parses; one more level does not.
        let nest = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(parse(&nest(MAX_DEPTH)).is_ok());
        assert!(parse(&nest(MAX_DEPTH + 1)).is_err());
        let objects = |n: usize| format!("{}1{}", "{\"k\":".repeat(n), "}".repeat(n));
        assert!(parse(&objects(MAX_DEPTH)).is_ok());
        assert!(parse(&objects(MAX_DEPTH + 1)).is_err());
        // Depth counts open containers, not containers seen: wide is fine.
        assert!(parse(&format!("[{}[]]", "[],".repeat(10_000))).is_ok());
    }

    #[test]
    fn non_finite_numbers_render_as_null() {
        for n in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let v = Json::Arr(vec![Json::Num(n), Json::Num(1.5)]);
            assert_eq!(v.render(), "[null,1.5]");
            assert_eq!(
                parse(&v.render()).expect("render emits valid JSON"),
                Json::Arr(vec![Json::Null, Json::Num(1.5)])
            );
        }
    }

    #[test]
    fn big_integers_stay_exact() {
        // u64-range seeds are beyond f64's 2^53 exact-integer range; the
        // merge workflow depends on them surviving parse → render.
        let text = r#"{"seed":13173058152101329326,"neg":-9007199254740993}"#;
        let v = parse(text).unwrap();
        assert_eq!(v.get("seed").unwrap().as_i128(), Some(13173058152101329326));
        assert_eq!(v.get("neg").unwrap().as_i128(), Some(-9007199254740993));
        assert_eq!(v.render(), text);
        // Non-integer syntax still reads as f64.
        assert_eq!(parse("1.5").unwrap().as_i128(), None);
        assert_eq!(parse("2e3").unwrap().as_f64(), Some(2000.0));
        // Whole-valued f64s beyond exact-i64 range keep float syntax, so
        // parse ∘ render is a fixed point there too (1e16 must not come
        // back as integer syntax / `Int`).
        let big = parse("1e16").unwrap();
        assert_eq!(big, Json::Num(1e16));
        assert_eq!(parse(&big.render()).unwrap(), big);
    }

    #[test]
    fn object_order_and_set() {
        let v = parse(r#"{"z":1,"a":2}"#).unwrap();
        assert_eq!(v.render(), r#"{"z":1,"a":2}"#, "member order preserved");
        let mut o = Json::obj();
        o.set("x", Json::Num(1.5));
        o.set("s", Json::Str("a\"b".into()));
        o.set("x", Json::Num(2.0)); // overwrite keeps position
        o.set("n", Json::Int(7));
        assert_eq!(o.render(), r#"{"x":2.0,"s":"a\"b","n":7}"#);
    }

    /// The awkward corners of each scalar kind, then random ones.
    const INTS: [i128; 6] = [
        0,
        -1,
        u64::MAX as i128, // full-width seeds
        i64::MIN as i128,
        i128::MAX,
        i128::MIN,
    ];
    const FLOATS: [f64; 10] = [
        0.0,
        -0.0,
        1.0, // whole-valued: must stay `Num`
        -3.0,
        5e-324, // tiny
        1e-7,
        8_999_999_999_999_999.0, // last whole value rendered with a decimal point
        9e15,                    // first rendered in exponent form
        1e300,
        f64::MIN_POSITIVE,
    ];
    const STRINGS: [&str; 6] = [
        "",
        "CDN/1:8/HybridTier",
        "quote\" back\\slash /",
        "ctl\u{0}\u{1}\u{1f}\n\t\r\u{7f}",
        "non-BMP 😀 𝒳, BMP é ✓",
        "\u{fffd}\u{e000}",
    ];

    /// An entropy tape: values are a deterministic function of it, so a
    /// failing case is reproducible from the proptest seed.
    struct Tape(std::vec::IntoIter<u64>);

    impl Tape {
        fn next(&mut self) -> u64 {
            self.0.next().unwrap_or(0)
        }

        /// A value nesting at most `depth` containers.
        fn value(&mut self, depth: usize) -> Json {
            let kinds = if depth == 0 { 5 } else { 7 };
            match self.next() % kinds {
                0 => Json::Null,
                1 => Json::Bool(self.next() & 1 == 1),
                2 => match self.next() as usize % (INTS.len() + 1) {
                    i if i < INTS.len() => Json::Int(INTS[i]),
                    _ => Json::Int(self.next() as i64 as i128 * (self.next() % 1_000) as i128),
                },
                3 => match self.next() as usize % (FLOATS.len() + 1) {
                    i if i < FLOATS.len() => Json::Num(FLOATS[i]),
                    _ => {
                        let any = f64::from_bits(self.next());
                        Json::Num(if any.is_finite() { any } else { 0.5 })
                    }
                },
                4 => Json::Str(self.string()),
                5 => Json::Arr(
                    (0..self.next() % 4)
                        .map(|_| self.value(depth - 1))
                        .collect(),
                ),
                _ => Json::Obj(
                    (0..self.next() % 4)
                        .map(|_| (self.string(), self.value(depth - 1)))
                        .collect(),
                ),
            }
        }

        fn string(&mut self) -> String {
            match self.next() as usize % (STRINGS.len() + 1) {
                i if i < STRINGS.len() => STRINGS[i].to_string(),
                _ => (0..self.next() % 6)
                    .filter_map(|_| char::from_u32(self.next() as u32 % 0x11_0000))
                    .collect(),
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn parse_inverts_render_and_render_is_a_fixed_point(
            tape in prop::collection::vec(any::<u64>(), 96),
        ) {
            let v = Tape(tape.into_iter()).value(4);
            let text = v.render();
            let back = parse(&text).map_err(|e| format!("{e} in {text}"))?;
            prop_assert_eq!(&back, &v, "{}", text);
            prop_assert_eq!(back.render(), text);
        }
    }
}
