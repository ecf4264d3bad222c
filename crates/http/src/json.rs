//! JSON bodies of the HTTP edge.
//!
//! Response bodies are plain derive-`Serialize` DTOs (the derive also
//! emits `Deserialize`, which the [`crate::Client`] uses to read them
//! back). Request bodies are parsed **leniently** by hand instead: the
//! vendored derive rejects any missing field, while the edge wants every
//! request knob optional with serving defaults — `{}` is a valid sample
//! request.
//!
//! The small sample and rollback bodies are read from the
//! [`serde_json::parse_value`] tree. A training body is read in one pass
//! with [`serde_json::Reader`]: its `data` rows stream straight into one
//! row-major buffer, each row's width checked against the first as the
//! row closes, and that buffer becomes the [`TrainBody::data`] matrix the
//! trainer takes without a copy. No value tree is built for it, so the
//! edge holds 8 bytes per training number instead of a 32-byte tree node
//! plus its copies. Fields are handled in document order, as the tree
//! walk did; a field of the wrong type or an unknown one is read past
//! (so a syntax error inside it is still reported as one) and refused.

use ndarray::Array2;
use serde::{Deserialize, Serialize, Value};
use serde_json::{Kind, Reader};

/// JSON MIME type.
pub const JSON_MIME: &str = "application/json";

/// One registry entry in `GET /v1/models`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ModelInfo {
    /// Registered model name.
    pub name: String,
    /// Current published version.
    pub version: u64,
    /// Visible-layer width.
    pub visible: usize,
    /// Hidden-layer width.
    pub hidden: usize,
}

/// Body of `GET /v1/models`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ModelList {
    /// Every registered model, in registry (name) order.
    pub models: Vec<ModelInfo>,
}

/// JSON body of a successful `POST /v1/models/{name}/sample` when the
/// client did not negotiate the binary wire format.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SampleReply {
    /// One sampled visible configuration per row (values are 0.0/1.0).
    pub samples: Vec<Vec<f64>>,
    /// Shard that executed the request.
    pub shard: usize,
    /// Model version the samples were drawn from.
    pub model_version: u64,
    /// Total rows of the coalesced batch the request rode in.
    pub coalesced_rows: usize,
    /// `true` when served by the degraded software fallback.
    pub degraded: bool,
}

/// JSON body of a successful `POST /v1/models/{name}/train`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainReply {
    /// Version the trained parameters were published under.
    pub new_version: u64,
    /// Shard that trained.
    pub shard: usize,
    /// Minibatches processed in the final epoch.
    pub batches: usize,
    /// Final epoch's mean absolute reconstruction error.
    pub reconstruction_error: f64,
    /// Final epoch's mean gradient L2 norm.
    pub gradient_norm: f64,
}

/// JSON body of a successful `POST /v1/models/{name}/rollback`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RollbackReply {
    /// The **new** version the rolled-back parameters were republished
    /// under (versions only move forward; a rollback is a republication
    /// of old parameters, not a rewind of the counter).
    pub new_version: u64,
    /// The retained version whose parameters were restored.
    pub rolled_back_to: u64,
}

/// JSON body of a successful `POST /v1/admin/snapshot`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SnapshotReply {
    /// Monotonic sequence number of the sealed snapshot.
    pub sequence: u64,
    /// Snapshot file name inside the store.
    pub file: String,
    /// Encoded snapshot size in bytes.
    pub bytes: u64,
    /// Models captured.
    pub models: usize,
    /// Total retained versions captured across all models.
    pub versions: usize,
}

/// JSON body of every non-2xx answer.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ErrorReply {
    /// Stable machine-readable error code (e.g. `queue_full`).
    pub code: String,
    /// Human-readable description.
    pub error: String,
}

/// Body of `GET /healthz`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Health {
    /// `"ok"` while the service accepts requests, `"draining"` after
    /// shutdown began.
    pub status: String,
    /// Worker shard count.
    pub shards: usize,
}

/// Parsed knobs of a JSON sample request. Every field is optional on
/// the wire; missing knobs take the serving defaults.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SampleBody {
    /// Chains to draw (`n_samples`), default 1.
    pub n_samples: Option<usize>,
    /// Gibbs steps per chain, default 1.
    pub gibbs_steps: Option<usize>,
    /// Master seed; omitted = shard-lane seeding.
    pub seed: Option<u64>,
    /// Initial visible levels shared by every chain.
    pub clamp: Option<Vec<f64>>,
}

/// Parsed knobs of a JSON train request. `data` is required; the rest
/// default to the `TrainRequest::new` settings.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainBody {
    /// Training rows (`rows × visible`): `"data": []` is 0×0 and
    /// `"data": [[]]` is 1×0.
    pub data: Array2<f64>,
    /// The `k` of CD-k, default 1.
    pub cd_k: Option<usize>,
    /// Learning rate, default 0.05.
    pub learning_rate: Option<f64>,
    /// Minibatch size, default 10.
    pub batch_size: Option<usize>,
    /// Epochs, default 1.
    pub epochs: Option<usize>,
    /// Training seed; omitted = shard-lane seeding.
    pub seed: Option<u64>,
}

fn value_u64(v: &Value, what: &str) -> Result<u64, String> {
    match v {
        Value::Int(i) if *i >= 0 => Ok(*i as u64),
        Value::UInt(u) => Ok(*u),
        _ => Err(format!("`{what}` must be a non-negative integer")),
    }
}

fn value_f64(v: &Value, what: &str) -> Result<f64, String> {
    match v {
        Value::Int(i) => Ok(*i as f64),
        Value::UInt(u) => Ok(*u as f64),
        Value::Float(f) => Ok(*f),
        _ => Err(format!("`{what}` must be a number")),
    }
}

fn value_f64_seq(v: &Value, what: &str) -> Result<Vec<f64>, String> {
    let seq = v
        .as_seq()
        .ok_or_else(|| format!("`{what}` must be an array of numbers"))?;
    seq.iter().map(|x| value_f64(x, what)).collect()
}

/// Parses a sample-request body. An empty body is the all-defaults
/// request.
///
/// # Errors
///
/// A human-readable reason (mapped to `400 Bad Request`) on malformed
/// JSON, wrong field types, or unknown fields.
pub fn parse_sample_body(body: &[u8]) -> Result<SampleBody, String> {
    if body.is_empty() {
        return Ok(SampleBody::default());
    }
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
    let value = serde_json::parse_value(text).map_err(|e| e.to_string())?;
    let pairs = value
        .as_map()
        .ok_or_else(|| "sample body must be a JSON object".to_string())?;
    let mut parsed = SampleBody::default();
    for (key, v) in pairs {
        match key.as_str() {
            "n_samples" => parsed.n_samples = Some(value_u64(v, key)? as usize),
            "gibbs_steps" => parsed.gibbs_steps = Some(value_u64(v, key)? as usize),
            "seed" => parsed.seed = Some(value_u64(v, key)?),
            "clamp" => parsed.clamp = Some(value_f64_seq(v, key)?),
            other => return Err(format!("unknown sample field `{other}`")),
        }
    }
    Ok(parsed)
}

/// Parses a train-request body (`data` required) in one pass.
///
/// # Errors
///
/// A human-readable reason (mapped to `400 Bad Request`) on malformed
/// JSON, a missing/ragged `data` matrix, wrong field types, or unknown
/// fields.
pub fn parse_train_body(body: &[u8]) -> Result<TrainBody, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
    let mut r = Reader::new(text);
    if r.peek().map_err(syntax)? != Kind::Object {
        r.skip().map_err(syntax)?;
        r.finish().map_err(syntax)?;
        return Err("train body must be a JSON object".to_string());
    }
    let (mut data, mut cd_k, mut learning_rate) = (None, None, None);
    let (mut batch_size, mut epochs, mut seed) = (None, None, None);
    r.begin_object().map_err(syntax)?;
    while let Some(key) = r.next_key().map_err(syntax)? {
        match &*key {
            "data" => data = Some(read_matrix(&mut r)?),
            "cd_k" => cd_k = Some(value_u64(&r.value().map_err(syntax)?, &key)? as usize),
            "learning_rate" => learning_rate = Some(value_f64(&r.value().map_err(syntax)?, &key)?),
            "batch_size" => {
                batch_size = Some(value_u64(&r.value().map_err(syntax)?, &key)? as usize)
            }
            "epochs" => epochs = Some(value_u64(&r.value().map_err(syntax)?, &key)? as usize),
            "seed" => seed = Some(value_u64(&r.value().map_err(syntax)?, &key)?),
            other => {
                r.skip().map_err(syntax)?;
                return Err(format!("unknown train field `{other}`"));
            }
        }
    }
    r.finish().map_err(syntax)?;
    Ok(TrainBody {
        data: data.ok_or_else(|| "train body needs a `data` matrix".to_string())?,
        cd_k,
        learning_rate,
        batch_size,
        epochs,
        seed,
    })
}

/// The text of a JSON syntax error, as the edge answers it.
fn syntax(e: serde_json::Error) -> String {
    e.to_string()
}

/// Reads a `data` value into one row-major matrix. Storage grows with
/// what has been read, never with a size the body claims. A row whose
/// width differs from the first row's is noted as it closes and refused
/// once the matrix ends, after every element has been type-checked, so
/// the refusals come in the tree walk's order: the first non-array row
/// or non-number element, else raggedness.
fn read_matrix(r: &mut Reader<'_>) -> Result<Array2<f64>, String> {
    if r.peek().map_err(syntax)? != Kind::Array {
        r.skip().map_err(syntax)?;
        return Err("`data` must be an array of rows".to_string());
    }
    let (mut values, mut rows, mut width, mut ragged) = (Vec::new(), 0, None, false);
    r.begin_array().map_err(syntax)?;
    while r.next_element().map_err(syntax)? {
        if r.peek().map_err(syntax)? != Kind::Array {
            r.skip().map_err(syntax)?;
            return Err("`data row` must be an array of numbers".to_string());
        }
        let row_start = values.len();
        r.begin_array().map_err(syntax)?;
        while r.next_element().map_err(syntax)? {
            if r.peek().map_err(syntax)? != Kind::Number {
                r.skip().map_err(syntax)?;
                return Err("`data row` must be a number".to_string());
            }
            values.push(value_f64(&r.number().map_err(syntax)?, "data row")?);
        }
        let len = values.len() - row_start;
        ragged |= *width.get_or_insert(len) != len;
        rows += 1;
    }
    if ragged {
        return Err("`data` rows have inconsistent lengths".to_string());
    }
    Ok(Array2::from_shape_vec((rows, width.unwrap_or(0)), values)
        .expect("every row holds the first row's width of values"))
}

/// Parses a rollback-request body (`version` required).
///
/// # Errors
///
/// A human-readable reason (mapped to `400 Bad Request`) on malformed
/// JSON, a missing `version`, wrong field types, or unknown fields.
pub fn parse_rollback_body(body: &[u8]) -> Result<u64, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
    let value = serde_json::parse_value(text).map_err(|e| e.to_string())?;
    let pairs = value
        .as_map()
        .ok_or_else(|| "rollback body must be a JSON object".to_string())?;
    let mut version = None;
    for (key, v) in pairs {
        match key.as_str() {
            "version" => version = Some(value_u64(v, key)?),
            other => return Err(format!("unknown rollback field `{other}`")),
        }
    }
    version.ok_or_else(|| "rollback body needs a `version`".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn empty_sample_body_is_all_defaults() {
        assert_eq!(parse_sample_body(b"").unwrap(), SampleBody::default());
        assert_eq!(parse_sample_body(b"{}").unwrap(), SampleBody::default());
    }

    #[test]
    fn sample_body_round_trips_fields() {
        let body = br#"{"n_samples": 8, "gibbs_steps": 3, "seed": 42, "clamp": [0.0, 1.0, 0.5]}"#;
        let parsed = parse_sample_body(body).unwrap();
        assert_eq!(parsed.n_samples, Some(8));
        assert_eq!(parsed.gibbs_steps, Some(3));
        assert_eq!(parsed.seed, Some(42));
        assert_eq!(parsed.clamp, Some(vec![0.0, 1.0, 0.5]));
    }

    #[test]
    fn sample_body_rejects_junk() {
        assert!(parse_sample_body(b"[1, 2]").is_err());
        assert!(parse_sample_body(br#"{"n_samples": -3}"#).is_err());
        assert!(parse_sample_body(br#"{"frobnicate": 1}"#).is_err());
        assert!(parse_sample_body(br#"{"clamp": "nope"}"#).is_err());
    }

    #[test]
    fn train_body_requires_rectangular_data() {
        let parsed =
            parse_train_body(br#"{"data": [[0.0, 1.0], [1.0, 0.0]], "epochs": 2}"#).unwrap();
        assert_eq!(parsed.data.dim(), (2, 2));
        assert_eq!(parsed.epochs, Some(2));
        assert!(parse_train_body(br#"{"epochs": 2}"#).is_err());
        assert!(parse_train_body(br#"{"data": [[0.0], [1.0, 0.0]]}"#).is_err());
    }

    #[test]
    fn rollback_body_requires_a_version() {
        assert_eq!(parse_rollback_body(br#"{"version": 3}"#).unwrap(), 3);
        assert!(parse_rollback_body(b"{}").is_err());
        assert!(parse_rollback_body(br#"{"version": -1}"#).is_err());
        assert!(parse_rollback_body(br#"{"version": 1, "force": true}"#).is_err());
        assert!(parse_rollback_body(b"[3]").is_err());
    }

    #[test]
    fn reply_dtos_round_trip_through_json() {
        let reply = SampleReply {
            samples: vec![vec![0.0, 1.0], vec![1.0, 1.0]],
            shard: 1,
            model_version: 3,
            coalesced_rows: 16,
            degraded: false,
        };
        let text = serde_json::to_string(&reply).unwrap();
        let back: SampleReply = serde_json::from_str(&text).unwrap();
        assert_eq!(back, reply);

        let err = ErrorReply {
            code: "queue_full".into(),
            error: "try later".into(),
        };
        let text = serde_json::to_string(&err).unwrap();
        let back: ErrorReply = serde_json::from_str(&text).unwrap();
        assert_eq!(back, err);
    }

    #[test]
    fn empty_data_keeps_its_shape() {
        let parsed = parse_train_body(br#"{"data": []}"#).unwrap();
        assert_eq!(parsed.data.dim(), (0, 0));
        let parsed = parse_train_body(br#"{"data": [[]]}"#).unwrap();
        assert_eq!(parsed.data.dim(), (1, 0));
        let parsed = parse_train_body(br#"{"data": [[0, -0, -0.0, 1e0, 0.25]]}"#).unwrap();
        let bits: Vec<u64> = parsed.data.iter().map(|x| x.to_bits()).collect();
        assert_eq!(
            bits,
            [0, 0, (-0.0f64).to_bits(), 1f64.to_bits(), 0.25f64.to_bits()]
        );
    }

    /// The tree walk `parse_train_body` replaced: `parse_value`, then the
    /// field conversions on the tree.
    #[allow(clippy::type_complexity)]
    fn tree_walk(body: &[u8]) -> Result<(Vec<Vec<f64>>, [Option<u64>; 4], Option<f64>), String> {
        let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
        let value = serde_json::parse_value(text).map_err(|e| e.to_string())?;
        let pairs = value
            .as_map()
            .ok_or_else(|| "train body must be a JSON object".to_string())?;
        let mut data: Option<Vec<Vec<f64>>> = None;
        let mut knobs = [None; 4]; // cd_k, batch_size, epochs, seed
        let mut learning_rate = None;
        for (key, v) in pairs {
            match key.as_str() {
                "data" => {
                    let rows = v
                        .as_seq()
                        .ok_or_else(|| "`data` must be an array of rows".to_string())?;
                    let matrix: Vec<Vec<f64>> = rows
                        .iter()
                        .map(|row| value_f64_seq(row, "data row"))
                        .collect::<Result<_, _>>()?;
                    if let Some(first) = matrix.first() {
                        if matrix.iter().any(|row| row.len() != first.len()) {
                            return Err("`data` rows have inconsistent lengths".to_string());
                        }
                    }
                    data = Some(matrix);
                }
                "cd_k" => knobs[0] = Some(value_u64(v, key)?),
                "learning_rate" => learning_rate = Some(value_f64(v, key)?),
                "batch_size" => knobs[1] = Some(value_u64(v, key)?),
                "epochs" => knobs[2] = Some(value_u64(v, key)?),
                "seed" => knobs[3] = Some(value_u64(v, key)?),
                other => return Err(format!("unknown train field `{other}`")),
            }
        }
        let data = data.ok_or_else(|| "train body needs a `data` matrix".to_string())?;
        Ok((data, knobs, learning_rate))
    }

    /// `parse_train_body` and the tree walk agree on `body`: both accept
    /// it with bitwise-equal data, the same shape and the same knobs, or
    /// both refuse it — with the same reason, unless the stream met a
    /// semantic problem before a syntax error the tree walk reports.
    fn assert_agrees(body: &[u8]) {
        let shown = String::from_utf8_lossy(body);
        match (parse_train_body(body), tree_walk(body)) {
            (Ok(stream), Ok((rows, knobs, rate))) => {
                let width = rows.first().map_or(0, Vec::len);
                assert_eq!(stream.data.dim(), (rows.len(), width), "{shown}");
                let got: Vec<u64> = stream.data.iter().map(|x| x.to_bits()).collect();
                let want: Vec<u64> = rows.iter().flatten().map(|x| x.to_bits()).collect();
                assert_eq!(got, want, "{shown}");
                let usize_knob = |k: Option<u64>| k.map(|v| v as usize);
                assert_eq!(stream.cd_k, usize_knob(knobs[0]), "{shown}");
                assert_eq!(stream.batch_size, usize_knob(knobs[1]), "{shown}");
                assert_eq!(stream.epochs, usize_knob(knobs[2]), "{shown}");
                assert_eq!(stream.seed, knobs[3], "{shown}");
                assert_eq!(
                    stream.learning_rate.map(f64::to_bits),
                    rate.map(f64::to_bits),
                    "{shown}"
                );
            }
            (Err(stream), Err(tree)) if stream != tree => {
                assert!(
                    tree.starts_with("serde error"),
                    "{shown}: {stream} vs {tree}"
                );
                assert!(
                    !stream.starts_with("serde error"),
                    "{shown}: {stream} vs {tree}"
                );
            }
            (Err(_), Err(_)) => {}
            (stream, tree) => panic!("{shown}: stream {stream:?} vs tree {tree:?}"),
        }
    }

    fn pick<'a>(rng: &mut StdRng, choices: &[&'a str]) -> &'a str {
        choices[rng.random_range(0..choices.len())]
    }

    fn ws(rng: &mut StdRng) -> &'static str {
        pick(rng, &["", "", " ", "\n", "\t ", "\r\n  "])
    }

    /// A number token of a kind training bodies carry: integers (`-0`
    /// and past `u64` included), short and 16–17 digit decimals, `-0.0`
    /// and exponents.
    fn number(rng: &mut StdRng) -> String {
        match rng.random_range(0..9) {
            0 => pick(rng, &["0", "1", "-0", "-0.0", "0.0", "1.0"]).to_string(),
            1 => rng.random_range(-1000i64..1000).to_string(),
            2 => format!("{:?}", rng.random_range(0.0..1.0f64)),
            3 => format!(
                "{:.1$}",
                rng.random_range(-1.0..1.0f64),
                rng.random_range(1..=17)
            ),
            4 => format!("0.{:016}", rng.random_range(0..10_000_000_000_000_000u64)),
            5 => format!(
                "{}{}{}",
                rng.random_range(1..10),
                pick(rng, &["e", "E", "e+", "e-", "E-"]),
                rng.random_range(0..400)
            ),
            6 => pick(rng, &["-9223372036854775808", "18446744073709551615"]).to_string(),
            7 => format!(
                "{}{:019}",
                rng.random_range(1..100),
                rng.random::<u64>() % 10u64.pow(19)
            ),
            _ => pick(rng, &["1e999", "-1e999", "1.5", "-0.5"]).to_string(),
        }
    }

    /// A value that is not a number.
    fn not_a_number(rng: &mut StdRng) -> &'static str {
        pick(
            rng,
            &["\"x\"", "null", "true", "[1]", "{}", "[]", "\"é\\n\""],
        )
    }

    /// A `data` matrix. One in three is malformed, often in more than one
    /// way: rows that are not arrays, rows of another width, elements
    /// that are not numbers.
    fn matrix(rng: &mut StdRng) -> String {
        let (rows, cols) = (rng.random_range(0..=8usize), rng.random_range(0..=8usize));
        let malformed = rng.random_range(0..3) == 0;
        let mut odds = |one_in: u32| malformed && rng.random_range(0..one_in) == 0;
        let (bad_row, ragged, bad_element) = (odds(3), odds(2), odds(3));
        let mut out = format!("[{}", ws(rng));
        for r in 0..rows {
            if r > 0 {
                out.push_str(&format!("{},{}", ws(rng), ws(rng)));
            }
            if bad_row && rng.random_range(0..8) == 0 {
                out.push_str(not_a_number(rng));
                continue;
            }
            let width = match rng.random_range(0..8) {
                0 if ragged => cols + 1,
                1 if ragged => cols.saturating_sub(1),
                _ => cols,
            };
            out.push('[');
            for c in 0..width {
                if c > 0 {
                    out.push_str(&format!("{},{}", ws(rng), ws(rng)));
                }
                if bad_element && rng.random_range(0..30) == 0 {
                    out.push_str(not_a_number(rng));
                } else {
                    out.push_str(&number(rng));
                }
            }
            out.push(']');
        }
        out.push_str(&format!("{}]", ws(rng)));
        out
    }

    /// A training body: mostly well-typed fields in random order, with
    /// duplicates, unknown keys, mistyped values, ragged or malformed
    /// rows, now and then no object at all or trailing text.
    fn train_body(rng: &mut StdRng) -> String {
        if rng.random_range(0..20) == 0 {
            return format!("{}{}", ws(rng), matrix(rng));
        }
        let mut out = format!("{}{{", ws(rng));
        let fields = rng.random_range(0..=6);
        // Nine bodies in ten carry `data` at least once.
        let data_at = if rng.random_range(0..10) == 0 {
            fields
        } else {
            rng.random_range(0..fields.max(1))
        };
        for f in 0..fields {
            if f > 0 {
                out.push(',');
            }
            let key = if f == data_at {
                "data"
            } else if rng.random_range(0..40) == 0 {
                "x"
            } else {
                pick(
                    rng,
                    &[
                        "data",
                        "data",
                        "data",
                        "cd_k",
                        "learning_rate",
                        "batch_size",
                        "epochs",
                        "seed",
                    ],
                )
            };
            let value = if rng.random_range(0..40) == 0 {
                pick(
                    rng,
                    &["\"x\"", "-1", "1.5", "null", "[1]", "{\"a\": [2]}", "1e2"],
                )
                .to_string()
            } else {
                match key {
                    "data" => matrix(rng),
                    "learning_rate" => number(rng),
                    "x" => "\"AAAA\"".to_string(),
                    _ => rng.random_range(0..1000u64).to_string(),
                }
            };
            out.push_str(&format!(
                "{}\"{key}\"{}:{}{value}{}",
                ws(rng),
                ws(rng),
                ws(rng),
                ws(rng)
            ));
        }
        out.push('}');
        if rng.random_range(0..20) == 0 {
            out.push_str(pick(rng, &["x", "{}", " 1", ","]));
        }
        out.push_str(ws(rng));
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn the_stream_reads_train_bodies_as_the_tree_walk_did(seed in any::<u64>()) {
            let mut rng = StdRng::seed_from_u64(seed);
            let body = train_body(&mut rng);
            // Every cut, the whole body included.
            for end in 0..=body.len() {
                assert_agrees(&body.as_bytes()[..end]);
            }
        }
    }
}
