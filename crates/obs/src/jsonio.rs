//! Minimal JSON reader for round-tripping the crate's own artifacts.
//!
//! The exporters in [`crate::export`] and [`mod@crate::analyze`] hand-roll
//! strict JSON; the analytics CLI (`trinity analyze` / `trinity diff`)
//! needs to load those files back without pulling a serde dependency into
//! the zero-dep obs crate. [`parse`] is a small recursive-descent parser
//! over the full JSON grammar, returning a [`Json`] value tree with the
//! handful of accessors the analytics layer needs. It accepts any strict
//! JSON document (object key order is preserved), not just our own output.

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (always carried as `f64`).
    Num(f64),
    /// A string, with escapes resolved.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in document order (duplicate keys are kept as-is;
    /// [`Json::get`] returns the first).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// First value under `key`, if this is an object containing it.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The string, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The fields, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(v) => Some(v),
            _ => None,
        }
    }

    /// Convenience: `self.get(key)?.as_f64()`.
    pub fn num(&self, key: &str) -> Option<f64> {
        self.get(key)?.as_f64()
    }

    /// Convenience: `self.get(key)?.as_str()`.
    pub fn str(&self, key: &str) -> Option<&str> {
        self.get(key)?.as_str()
    }
}

/// Deepest array/object nesting [`parse`] accepts. The exporters nest four
/// or five levels; the cap keeps a hostile file (say 300 000 `[`) an
/// error instead of a recursion that overflows the stack.
pub const MAX_DEPTH: usize = 128;

/// Parse one JSON document. Returns `None` on any syntax error, trailing
/// garbage, or nesting deeper than [`MAX_DEPTH`].
///
/// # Examples
///
/// ```
/// let v = obs::jsonio::parse(r#"{"total": 1.5, "names": ["a", "b"]}"#).unwrap();
/// assert_eq!(v.num("total"), Some(1.5));
/// assert_eq!(v.get("names").unwrap().as_arr().unwrap().len(), 2);
/// ```
pub fn parse(s: &str) -> Option<Json> {
    let b = s.as_bytes();
    let (v, i) = value(b, 0, 0)?;
    (skip_ws(b, i) == b.len()).then_some(v)
}

fn skip_ws(b: &[u8], mut i: usize) -> usize {
    while i < b.len() && matches!(b[i], b' ' | b'\t' | b'\n' | b'\r') {
        i += 1;
    }
    i
}

/// Parse the value at `i`, itself nested inside `depth` containers.
fn value(b: &[u8], i: usize, depth: usize) -> Option<(Json, usize)> {
    let i = skip_ws(b, i);
    if depth >= MAX_DEPTH && matches!(b.get(i)?, b'{' | b'[') {
        return None;
    }
    match b.get(i)? {
        b'{' => {
            let mut fields = Vec::new();
            let mut i = skip_ws(b, i + 1);
            if b.get(i) == Some(&b'}') {
                return Some((Json::Obj(fields), i + 1));
            }
            loop {
                let (key, j) = string(b, skip_ws(b, i))?;
                let j = skip_ws(b, j);
                if b.get(j) != Some(&b':') {
                    return None;
                }
                let (val, j) = value(b, j + 1, depth + 1)?;
                fields.push((key, val));
                i = skip_ws(b, j);
                match b.get(i)? {
                    b',' => i += 1,
                    b'}' => return Some((Json::Obj(fields), i + 1)),
                    _ => return None,
                }
            }
        }
        b'[' => {
            let mut items = Vec::new();
            let mut i = skip_ws(b, i + 1);
            if b.get(i) == Some(&b']') {
                return Some((Json::Arr(items), i + 1));
            }
            loop {
                let (val, j) = value(b, i, depth + 1)?;
                items.push(val);
                i = skip_ws(b, j);
                match b.get(i)? {
                    b',' => i += 1,
                    b']' => return Some((Json::Arr(items), i + 1)),
                    _ => return None,
                }
            }
        }
        b'"' => {
            let (s, i) = string(b, i)?;
            Some((Json::Str(s), i))
        }
        b't' => b[i..]
            .starts_with(b"true")
            .then(|| (Json::Bool(true), i + 4)),
        b'f' => b[i..]
            .starts_with(b"false")
            .then(|| (Json::Bool(false), i + 5)),
        b'n' => b[i..].starts_with(b"null").then(|| (Json::Null, i + 4)),
        _ => number(b, i),
    }
}

fn string(b: &[u8], mut i: usize) -> Option<(String, usize)> {
    if b.get(i) != Some(&b'"') {
        return None;
    }
    i += 1;
    let mut out = Vec::new();
    loop {
        match *b.get(i)? {
            b'"' => {
                return Some((String::from_utf8(out).ok()?, i + 1));
            }
            b'\\' => {
                i += 1;
                match *b.get(i)? {
                    b'"' => out.push(b'"'),
                    b'\\' => out.push(b'\\'),
                    b'/' => out.push(b'/'),
                    b'b' => out.push(0x08),
                    b'f' => out.push(0x0c),
                    b'n' => out.push(b'\n'),
                    b'r' => out.push(b'\r'),
                    b't' => out.push(b'\t'),
                    b'u' => {
                        let hex = std::str::from_utf8(b.get(i + 1..i + 5)?).ok()?;
                        let cp = u32::from_str_radix(hex, 16).ok()?;
                        // Surrogate pairs are not produced by our exporters;
                        // map lone surrogates to the replacement character.
                        let c = char::from_u32(cp).unwrap_or('\u{fffd}');
                        let mut buf = [0u8; 4];
                        out.extend_from_slice(c.encode_utf8(&mut buf).as_bytes());
                        i += 4;
                    }
                    _ => return None,
                }
                i += 1;
            }
            c if c < 0x20 => return None,
            c => {
                out.push(c);
                i += 1;
            }
        }
    }
}

fn number(b: &[u8], i: usize) -> Option<(Json, usize)> {
    let start = i;
    let mut j = i;
    if b.get(j) == Some(&b'-') {
        j += 1;
    }
    let digits = |b: &[u8], mut j: usize| {
        let s = j;
        while j < b.len() && b[j].is_ascii_digit() {
            j += 1;
        }
        (j > s).then_some(j)
    };
    j = digits(b, j)?;
    if b.get(j) == Some(&b'.') {
        j = digits(b, j + 1)?;
    }
    if matches!(b.get(j), Some(&b'e') | Some(&b'E')) {
        j += 1;
        if matches!(b.get(j), Some(&b'+') | Some(&b'-')) {
            j += 1;
        }
        j = digits(b, j)?;
    }
    let v: f64 = std::str::from_utf8(&b[start..j]).ok()?.parse().ok()?;
    Some((Json::Num(v), j))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_parse() {
        assert_eq!(parse("null"), Some(Json::Null));
        assert_eq!(parse("true"), Some(Json::Bool(true)));
        assert_eq!(parse("-2.5e3"), Some(Json::Num(-2500.0)));
        assert_eq!(parse("\"hi\""), Some(Json::Str("hi".into())));
    }

    #[test]
    fn nested_structures_parse() {
        let v = parse(r#"{"a": [1, {"b": "x"}], "c": {}}"#).unwrap();
        let arr = v.get("a").unwrap().as_arr().unwrap();
        assert_eq!(arr[0].as_f64(), Some(1.0));
        assert_eq!(arr[1].str("b"), Some("x"));
        assert_eq!(v.get("c").unwrap().as_obj().unwrap().len(), 0);
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn nesting_is_bounded() {
        let nested = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        assert!(parse(&nested(MAX_DEPTH)).is_some());
        assert_eq!(parse(&nested(MAX_DEPTH + 1)), None);
        // Unclosed and far past any stack: an error, not an overflow.
        assert_eq!(parse(&"[".repeat(300_000)), None);
        assert_eq!(parse(&"{\"k\":".repeat(300_000)), None);
    }

    #[test]
    fn escapes_resolve() {
        let v = parse(r#""q\"w\\x\n\u0041\u001f""#).unwrap();
        assert_eq!(v.as_str(), Some("q\"w\\x\nA\u{1f}"));
    }

    #[test]
    fn garbage_rejected() {
        for bad in [
            "{\"a\":}",
            "[1,]",
            "{\"a\":1",
            "nope",
            "1 2",
            "\"unterminated",
        ] {
            assert_eq!(parse(bad), None, "{bad:?} should not parse");
        }
    }

    #[test]
    fn own_exporters_round_trip() {
        let tr = crate::Tracer::new();
        tr.name_track(0, "rank \"0\"\n");
        tr.record_with(0, "stage", "weird\\name", 0.0, 1.5, &[("bytes", 7.0)]);
        let text = crate::export::trace_json(&tr.take());
        let v = parse(&text).expect("trace_json parses");
        let spans = v.get("spans").unwrap().as_arr().unwrap();
        assert_eq!(spans[0].str("name"), Some("weird\\name"));
        assert_eq!(spans[0].get("args").unwrap().num("bytes"), Some(7.0));
    }
}
